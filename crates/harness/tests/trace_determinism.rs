//! The observability contract, end to end: tracing a run changes none
//! of its outputs, and two traced runs of the same `RunKey` produce
//! byte-identical event streams.

use tango::{simulate_run, NetworkRun, RunSpec};
use tango_nets::{NetworkKind, Preset};
use tango_obs::Trace;
use tango_sim::{GpuConfig, SimOptions};

fn spec() -> RunSpec {
    RunSpec {
        config: GpuConfig::gp102(),
        preset: Preset::Tiny,
        seed: 0x7A16_0201_9151,
        kind: NetworkKind::CifarNet,
        options: SimOptions::new(),
    }
}

/// One traced simulation in a fresh recording on this thread.
fn traced_run() -> (NetworkRun, Trace) {
    tango_obs::enable(1 << 20);
    let run = simulate_run(&spec()).expect("simulation succeeds");
    tango_obs::disable();
    (run, tango_obs::drain())
}

#[test]
fn tracing_is_deterministic_and_output_neutral() {
    // Baseline: the untraced result.
    let untraced = simulate_run(&spec()).expect("simulation succeeds");

    let (first_run, first) = traced_run();
    let (second_run, second) = traced_run();

    // Tracing must not perturb the simulation: traced and untraced runs
    // agree on cycles and output bits.
    assert_eq!(first_run.report.total_cycles(), untraced.report.total_cycles());
    assert_eq!(
        first_run.report.output.as_slice(),
        untraced.report.output.as_slice(),
        "tracing changed the network output"
    );

    // The trace is real, well-formed, and accounts for every cycle.
    assert!(!first.is_empty(), "traced run recorded nothing");
    assert_eq!(first.dropped, 0, "ring overflowed; raise the test cap");
    first.check_nesting().expect("span tree nests");
    assert_eq!(
        first.span_cycles("sim.launch"),
        first_run.report.total_cycles(),
        "launch spans must sum to the reported total"
    );

    // Same RunKey, same bytes: the exported stream is reproducible.
    assert_eq!(second_run.report.total_cycles(), first_run.report.total_cycles());
    let json = first.chrome_json();
    assert_eq!(json, second.chrome_json(), "traced reruns diverged");
    tango_obs::json::validate(&json).expect("exported trace parses as JSON");
}
