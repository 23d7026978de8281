//! The repo benchmark: three cold-simulator regimes plus the warm stack,
//! with a per-crate traced breakdown. See `README.md`.
//!
//! ```text
//! tango-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--out FILE] [--spans FILE] [--learn FILE]
//! tango-benchmark [--traced] [--runs K] [--seed N] [--seconds S] [--out FILE]
//! tango-benchmark --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line on standard output is the result object `BENCHMARK.json`
//! describes. The second runs every workload, each in a process of its
//! own, and prints every metric by name and unit.

mod compare;
mod digest;
mod layers;
mod span;
mod stats;
mod tour;
mod workloads;

use compare::{parse_records, render_record, values, Record, END_TO_END};
use digest::{Checker, DEFAULT_SEED};
use span::{Phase, Tracer};
use stats::{median, quartiles, spread};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{cold_rep, Bench, WarmStack, Workload, FULL, SMALL};

/// No workload times fewer reps than this, however long one takes.
const MIN_REPS: usize = 3;
/// Set-up passes of a cold workload; `setup_s` is their median.
const SETUP_PASSES: usize = 5;
/// Seconds of `--seconds` a traced run keeps for the tour.
const TOUR_BUDGET_S: f64 = 5.0;
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    traced: bool,
    runs: u32,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    learn: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        traced: false,
        runs: 1,
        out: None,
        spans: None,
        learn: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = parse_u64(value()?).ok_or("--seed takes a whole number")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--runs" => {
                args.runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or("--runs takes a positive count")?
            }
            "--out" => args.out = Some(value()?.into()),
            "--spans" => args.spans = Some(value()?.into()),
            "--learn" => args.learn = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--smoke" => args.smoke = true,
            "--traced" => args.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A directory of this run's own next to the executable, so that probe
/// stores stay inside the checkout's build directory.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("tango-benchmark-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A workload's inputs, ready for reps.
enum Prepared {
    Cold(Vec<tango::RunSpec>),
    Warm(Box<WarmStack>),
}

impl Prepared {
    fn rep(&self, b: &mut Bench) -> f64 {
        match self {
            Prepared::Cold(specs) => cold_rep(b, specs),
            Prepared::Warm(warm) => warm.rep(b).iter().sum(),
        }
    }
}

/// Everything before the first timed rep: inputs from the seed, the
/// launch-memo recording of the warm stack, and a warm-up rep at the
/// small scale. Returns the inputs and `setup_s`.
///
/// A cold workload sets up in milliseconds, so it does so
/// `SETUP_PASSES` times and reports the median. The warm stack records
/// four networks into a process-wide table that cannot be emptied, so it
/// sets up once. Its full-size set-up is traced; warm-ups never are.
fn set_up(b: &mut Bench, workload: Workload, smoke: bool, since_start: Instant) -> (Prepared, f64) {
    let scale = if smoke { &SMALL } else { &FULL };
    let traced = b.tracer.is_on();
    if workload == Workload::WarmStack {
        let warm = WarmStack::set_up(b, scale);
        b.tracer.set_on(false);
        if smoke {
            warm.rep(b);
        } else {
            WarmStack::set_up(b, &SMALL).rep(b);
        }
        b.tracer.set_on(traced);
        return (
            Prepared::Warm(Box::new(warm)),
            since_start.elapsed().as_secs_f64(),
        );
    }
    b.tracer.set_on(false);
    let mut walls = Vec::with_capacity(SETUP_PASSES);
    let mut specs = Vec::new();
    for pass in 0..SETUP_PASSES {
        let start = if pass == 0 {
            since_start
        } else {
            Instant::now()
        };
        specs = workload.cold_specs(scale, b.seed);
        cold_rep(b, &workload.cold_specs(&SMALL, b.seed));
        walls.push(start.elapsed().as_secs_f64());
    }
    b.tracer.set_on(traced);
    (Prepared::Cold(specs), median(&walls))
}

/// A metric as a run reports it: name, unit, value.
type Metric = (&'static str, &'static str, f64);

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn fmt_walls(walls: &[f64]) -> String {
    let walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    walls.join(" ")
}

fn write_spans(path: &Path, reps: &Phase, tour: &Phase) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(b"phase\tspan\tparent\trep\tname\tstart_ns\tend_ns\tself_ns\n")?;
    reps.write_tsv("workload", &mut file)?;
    tour.write_tsv("tour", &mut file)?;
    file.flush()
}

/// One run of one workload in this process.
fn run_workload(workload: Workload, args: &Args) -> Result<ExitCode, String> {
    let start = Instant::now();
    if args.learn.is_some() && args.seed != DEFAULT_SEED {
        return Err("--learn records the default seed's digests; do not pass --seed".to_string());
    }
    let mut b = Bench {
        tracer: Tracer::new(args.trace),
        check: Checker::new(args.seed, args.learn.is_some()),
        seed: args.seed,
    };
    let (prepared, setup_s) = set_up(&mut b, workload, args.smoke, start);

    // Stop before the sample that would overrun the budget, but not
    // before `min` samples; `--smoke` takes one.
    let measuring = Instant::now();
    let enough = |samples: &[f64], min: usize, budget_s: f64| {
        !samples.is_empty()
            && (args.smoke
                || (samples.len() >= min
                    && measuring.elapsed().as_secs_f64() + median(samples) > budget_s))
    };
    let mut metrics: Vec<Metric> = Vec::new();
    let mut walls = Vec::new();
    if !args.trace {
        while !enough(&walls, MIN_REPS, args.seconds) {
            walls.push(prepared.rep(&mut b));
        }
        let values = [median(&walls), setup_s, peak_rss_mb()?];
        metrics.extend(
            END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name, m.unit, v)),
        );
    } else {
        // Untraced and traced reps alternate, so that both see the same
        // machine; their ratio is the tracing overhead.
        let (mut plain, mut pairs) = (Vec::new(), Vec::new());
        while !enough(&pairs, 1, args.seconds - TOUR_BUDGET_S) {
            b.tracer.set_on(false);
            plain.push(prepared.rep(&mut b));
            b.tracer.set_on(true);
            b.tracer.set_rep(walls.len() as u32 + 1);
            walls.push(prepared.rep(&mut b));
            pairs.push(plain[plain.len() - 1] + walls[walls.len() - 1]);
        }
        eprintln!("[bench] untraced rep walls: {}", fmt_walls(&plain));
        let reps = b.tracer.take_phase();
        b.tracer.set_rep(0);
        let scratch = scratch_dir().map_err(|e| format!("scratch directory: {e}"))?;
        tour::tour(&mut b, &scratch);
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let tour = b.tracer.take_phase();

        metrics.extend(layers::layer_metrics(&reps, &tour));
        let overhead = median(&walls) / median(&plain) - 1.0;
        let spans = (reps.spans.len() + tour.spans.len()) as f64;
        metrics.extend(
            layers::BENCH_METRICS
                .into_iter()
                .zip([overhead, spans])
                .map(|((name, unit), v)| (name, unit, v)),
        );
        if let Some(path) = &args.spans {
            write_spans(path, &reps, &tour).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    eprintln!(
        "[bench] {} seed {:#x} trace {}: {} reps, rep_wall_s median {:.4} (spread {:.2}%), setup_s {:.4}, ops {} failed {}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        walls.len(),
        median(&walls),
        spread(&walls) * 100.0,
        setup_s,
        b.check.attempted,
        b.check.failed
    );
    eprintln!("[bench] rep walls: {}", fmt_walls(&walls));
    for note in &b.check.notes {
        eprintln!("[bench] FAILED {note}");
    }
    if let Some(path) = &args.learn {
        append(path, &b.check.learned())?;
    }
    if let Some(path) = &args.out {
        let mut flat: Vec<(&str, f64)> = metrics.iter().map(|&(n, _, v)| (n, v)).collect();
        if !args.trace {
            let (q1, q3) = quartiles(&walls);
            flat.extend([
                ("rep_wall_s.q1", q1),
                ("rep_wall_s.q3", q3),
                ("rep_wall_s.n", walls.len() as f64),
            ]);
        }
        let line = render_record(
            workload.name(),
            args.seed,
            args.trace,
            b.check.attempted,
            b.check.failed,
            &flat,
        );
        append(path, &format!("{line}\n"))?;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        b.check.failed == 0,
        b.check.attempted.max(1),
        b.check.failed,
        json_metrics(&metrics)
    );
    Ok(ExitCode::SUCCESS)
}

fn append(path: &Path, text: &str) -> Result<(), String> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints `metric` of every workload: median, quartiles, spread, count.
fn print_rows(records: &[Record], trace: bool, names: &[(&str, &str)]) {
    for (name, unit) in names {
        print!("{name:<44} {unit:<12}");
        for w in Workload::ALL {
            let v = values(records, w.name(), trace, name);
            if v.is_empty() {
                print!(" {:>24}", "-");
            } else if v.len() == 1 {
                print!(" {:>24.6}", v[0]);
            } else {
                print!(" {:>15.6} ±{:>6.2}%", median(&v), spread(&v) * 100.0);
            }
        }
        println!();
    }
}

/// Every workload, each in a process of its own (peak memory and the
/// launch memo are per process), `--runs` times with seeds `seed`,
/// `seed + 1`, ...; then every metric by name and unit.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let kept = args.out.clone();
    let out = match &kept {
        Some(path) => path.clone(),
        None => scratch_dir()
            .map_err(|e| format!("scratch directory: {e}"))?
            .join("results.jsonl"),
    };
    let already = std::fs::read_to_string(&out).map_or(0, |t| t.lines().count());
    for run in 0..args.runs {
        for workload in Workload::ALL {
            for trace in [false, true] {
                if trace && !args.traced {
                    continue;
                }
                let status = Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args([
                        "--seed",
                        &args.seed.wrapping_add(u64::from(run)).to_string(),
                    ])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .args(if args.smoke { &["--smoke"][..] } else { &[] })
                    .arg("--out")
                    .arg(&out)
                    .stdout(Stdio::null())
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!(
                        "{} (trace {}) exited with {status}",
                        workload.name(),
                        u8::from(trace)
                    ));
                }
            }
        }
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let fresh: String = text
        .lines()
        .skip(already)
        .map(|l| format!("{l}\n"))
        .collect();
    let records = parse_records(&fresh)?;
    if kept.is_none() {
        let _ = std::fs::remove_dir_all(out.parent().unwrap_or(Path::new(".")));
    }

    print!("{:<44} {:<12}", "metric (median ± quartile spread)", "unit");
    Workload::ALL
        .iter()
        .for_each(|w| print!(" {:>24}", w.name()));
    println!();
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    print_rows(&records, false, &e2e);
    print_rows(&records, false, &[("rep_wall_s.n", "count")]);
    let wall = |w: Workload| values(&records, w.name(), false, "rep_wall_s");
    println!(
        "{:<44} {:<12} {:>24.4}",
        "sim.l1_bypass_host_ratio",
        "ratio",
        median(&wall(Workload::ColdL1Bypass)) / median(&wall(Workload::ColdIssueBound))
    );
    if args.traced {
        let mut names: Vec<(&str, &str)> = layers::LAYER_METRICS
            .iter()
            .map(|m| (m.name, m.unit))
            .collect();
        names.extend(layers::BENCH_METRICS);
        print_rows(&records, true, &names);
    }
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    println!("failed ops: {failed}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        parse_records(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let (report, bad) = compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (&args.compare, args.workload) {
        (Some((a, b)), _) => run_compare(a, b),
        (None, Some(workload)) => run_workload(workload, &args),
        (None, None) => run_all(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
