#!/usr/bin/env bash
# Offline CI gate: tier-1 build + tests, then a cold+warm repro_all pass
# proving the persistent result store eliminates all re-simulation.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier 1: build =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== tango-sim tests at the release opt-level =="
# The interpreter's full-mask lane loops vectorise only there, and its
# debug-build oracles (kernel == alu per lane, warp == per-lane bounds
# test, stall cache, sleep, in-place walk) are compiled out: the goldens
# and the (op, dtype) table must hold without them.
cargo test --release -q -p tango-sim

echo "== tango-obs, tango-serve, tango-fleet, tango-tensor tests at the release opt-level =="
# The fleet loop's ready index, the handle-based registry and the
# one-pass serve metrics are checked against their reference forms by
# generated inputs; those comparisons must also hold with every
# `debug_assert!` compiled out. The bulk weight fills must equal the
# scalar draws bit for bit where their loop is vectorised.
cargo test --release -q -p tango-obs -p tango-serve -p tango-fleet -p tango-tensor

echo "== tango-nets weight images at the release opt-level =="
# Every network's device image after build_network against digests
# recorded from scalar draws; the rest of the nets suite stays in tier 1.
cargo test --release -q -p tango-nets --test weight_image weight_image_digests_match_the_scalar_draws

echo "== clippy: workspace must be warning-free =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== repro_all: cold pass (tiny preset, scratch store) =="
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

HARNESS="cargo run --release -q -p tango-bench --bin harness --"

# expect_exit2 <VAR=val...> -- <cmd...>: the command must exit 2 and
# name the first variable it was given on stderr.
expect_exit2() {
    local vars=()
    while [ "$1" != "--" ]; do vars+=("$1"); shift; done
    shift
    local status=0
    env TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" ${vars[@]+"${vars[@]}"} "$@" \
        >/dev/null 2>"$SCRATCH/exit2.err" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: ${vars[*]-} $* exited $status, want 2" >&2
        cat "$SCRATCH/exit2.err" >&2
        exit 1
    fi
    if [ "${#vars[@]}" -gt 0 ] && ! grep -q "${vars[0]%%=*}" "$SCRATCH/exit2.err"; then
        echo "FAIL: ${vars[*]} $*: error does not name ${vars[0]%%=*}" >&2
        exit 1
    fi
}

run_repro() {
    TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" \
        cargo run --release -q -p tango-bench --bin repro_all 2>&1 >/dev/null |
        tee /dev/stderr | grep -oE 'store hits=[0-9]+ misses=[0-9]+' | tail -1
}

cold=$(run_repro)
echo "cold:  $cold"
[ "$(echo "$cold" | grep -oE 'misses=[0-9]+')" != "misses=0" ] ||
    echo "note: cold pass already warm (pre-existing store?)"

echo "== repro_all: warm pass (must be all cache hits) =="
warm=$(run_repro)
echo "warm:  $warm"
if [ "$(echo "$warm" | grep -oE 'misses=[0-9]+')" != "misses=0" ]; then
    echo "FAIL: warm repro_all re-simulated ($warm)" >&2
    exit 1
fi

echo "== repro_all: per-phase profile =="
if [ ! -s "$SCRATCH/profile.txt" ]; then
    echo "FAIL: repro_all did not write a per-phase profile" >&2
    exit 1
fi

echo "== repro_all: TANGO_SIM_MEMO=0 must not change a single output byte =="
# The launch-memo escape hatch: a cold pass with memoization disabled
# must produce byte-identical figures and tables — replay is exact or
# it is a bug.
mkdir -p "$SCRATCH/memo_off"
TANGO_PRESET=tiny TANGO_SIM_MEMO=0 TANGO_RESULTS_DIR="$SCRATCH/memo_off" \
    cargo run --release -q -p tango-bench --bin repro_all >/dev/null 2>&1
for f in "$SCRATCH"/fig*.txt "$SCRATCH"/table*.txt; do
    b="$(basename "$f")"
    if ! cmp -s "$f" "$SCRATCH/memo_off/$b"; then
        echo "FAIL: $b differs with TANGO_SIM_MEMO=0" >&2
        diff "$f" "$SCRATCH/memo_off/$b" >&2 || true
        exit 1
    fi
done

echo "== repro_all --only: one experiment alone equals the cold pass's; unknown ids exit 2 =="
mkdir -p "$SCRATCH/only"
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH/only" \
    cargo run --release -q -p tango-bench --bin repro_all -- --only fig07 >/dev/null 2>&1
if ! cmp -s "$SCRATCH/fig07.txt" "$SCRATCH/only/fig07.txt"; then
    echo "FAIL: repro_all --only fig07 differs from the full run's fig07.txt" >&2
    exit 1
fi
expect_exit2 -- cargo run --release -q -p tango-bench --bin repro_all -- --only nope
grep -q 'fig07' "$SCRATCH/exit2.err" || {
    echo "FAIL: repro_all --only nope does not list the ids" >&2
    exit 1
}

echo "== TANGO_PRESET: a typo must exit 2 =="
expect_exit2 TANGO_PRESET=garbage -- cargo run --release -q -p tango-bench --bin repro_all

echo "== harness trace: tracing must not change a single output byte =="
TANGO_PRESET=tiny $HARNESS trace cifarnet > "$SCRATCH/untraced.out" 2>/dev/null
TANGO_PRESET=tiny TANGO_TRACE="$SCRATCH/trace.json" \
    $HARNESS trace cifarnet > "$SCRATCH/traced.out" 2>"$SCRATCH/traced.err"
if ! cmp -s "$SCRATCH/untraced.out" "$SCRATCH/traced.out"; then
    echo "FAIL: tracing changed the simulation report" >&2
    diff "$SCRATCH/untraced.out" "$SCRATCH/traced.out" >&2 || true
    exit 1
fi
# The traced binary itself verified nesting, launch-cycle coverage, and
# JSON validity before writing; the file must exist and say so.
if [ ! -s "$SCRATCH/trace.json" ]; then
    echo "FAIL: traced run wrote no trace file" >&2
    exit 1
fi
grep -q 'launch spans cover' "$SCRATCH/traced.err" || {
    echo "FAIL: traced run did not report launch-span coverage" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$SCRATCH/trace.json" ||
        { echo "FAIL: trace.json is not valid JSON" >&2; exit 1; }
fi

echo "== harness trace: bad TANGO_TRACE_CAP must exit 2 =="
expect_exit2 TANGO_TRACE_CAP=0 -- $HARNESS trace cifarnet

echo "== harness lint: zero error-severity diagnostics, deterministic report =="
# Exit code 1 here means an error-severity diagnostic in a suite kernel.
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" \
    $HARNESS lint --all > "$SCRATCH/lint1.out" 2>/dev/null
if ! cmp -s "$SCRATCH/lint1.out" "$SCRATCH/lint_report.txt"; then
    echo "FAIL: results/lint_report.txt diverges from lint stdout" >&2
    exit 1
fi
cp "$SCRATCH/lint_report.txt" "$SCRATCH/lint_report_run1.txt"
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" \
    $HARNESS lint --all > "$SCRATCH/lint2.out" 2>/dev/null
if ! cmp -s "$SCRATCH/lint_report_run1.txt" "$SCRATCH/lint_report.txt"; then
    echo "FAIL: lint_report.txt differs across identical runs" >&2
    diff "$SCRATCH/lint_report_run1.txt" "$SCRATCH/lint_report.txt" >&2 || true
    exit 1
fi

echo "== harness store stats/gc (stale record must be dropped) =="
# Inject a record written under schema version 1; gc must remove exactly it.
printf 'TNGR\x01\x00\x00\x00stale' > "$SCRATCH/store/gru-00000000deadbeef.run"
$HARNESS store stats --dir "$SCRATCH/store"
gc_out=$($HARNESS store gc --dir "$SCRATCH/store")
echo "$gc_out"
case "$gc_out" in
    "removed 1 stale record"*) ;;
    *)
        echo "FAIL: store gc did not remove the injected stale record" >&2
        exit 1
        ;;
esac

echo "== serve_bench --smoke (admission control + batching latency win) =="
TANGO_RESULTS_DIR="$SCRATCH" \
    cargo run --release -q -p tango-bench --bin serve_bench -- --smoke

echo "== harness backends: byte-identical across reruns and worker counts =="
for net in cifarnet gru; do
    TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=1 \
        $HARNESS backends "$net" > "$SCRATCH/backends_${net}_j1.out" 2>/dev/null
    TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=4 \
        $HARNESS backends "$net" > "$SCRATCH/backends_${net}_j4.out" 2>"$SCRATCH/backends_${net}_j4.err"
    if ! cmp -s "$SCRATCH/backends_${net}_j1.out" "$SCRATCH/backends_${net}_j4.out"; then
        echo "FAIL: harness backends $net differs across TANGO_JOBS settings" >&2
        diff "$SCRATCH/backends_${net}_j1.out" "$SCRATCH/backends_${net}_j4.out" >&2 || true
        exit 1
    fi
    # The second pass ran over a warm store: zero re-simulations.
    grep -q 'store hits=[0-9]* misses=0' "$SCRATCH/backends_${net}_j4.err" || {
        echo "FAIL: warm harness backends $net re-ran models" >&2
        cat "$SCRATCH/backends_${net}_j4.err" >&2
        exit 1
    }
    # Stdout and the results artifact must agree byte for byte.
    if ! cmp -s "$SCRATCH/backends_${net}_j1.out" "$SCRATCH/backends_${net}.txt"; then
        echo "FAIL: results/backends_${net}.txt diverges from stdout" >&2
        exit 1
    fi
done

echo "== harness backends: garbage TANGO_BACKENDS must exit 2 =="
expect_exit2 TANGO_BACKENDS=garbage -- $HARNESS backends gru

echo "== harness fleet --smoke: byte-identical across reruns and worker counts =="
TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=1 \
    $HARNESS fleet --smoke > "$SCRATCH/fleet_j1.out" 2>/dev/null
cp "$SCRATCH/fleet_bench.txt" "$SCRATCH/fleet_bench_j1.txt"
TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=4 \
    $HARNESS fleet --smoke > "$SCRATCH/fleet_j4.out" 2>"$SCRATCH/fleet_j4.err"
if ! cmp -s "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_j4.out"; then
    echo "FAIL: harness fleet differs across TANGO_JOBS settings" >&2
    diff "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_j4.out" >&2 || true
    exit 1
fi
if ! cmp -s "$SCRATCH/fleet_bench_j1.txt" "$SCRATCH/fleet_bench.txt"; then
    echo "FAIL: fleet_bench.txt differs across TANGO_JOBS settings" >&2
    exit 1
fi
# Stdout and the results artifact must agree byte for byte.
if ! cmp -s "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_bench.txt"; then
    echo "FAIL: fleet_bench.txt diverges from stdout" >&2
    exit 1
fi
# The second pass ran over a warm store: zero re-simulations.
grep -q 'store hits=[0-9]* misses=0' "$SCRATCH/fleet_j4.err" || {
    echo "FAIL: warm harness fleet re-ran models" >&2
    cat "$SCRATCH/fleet_j4.err" >&2
    exit 1
}

echo "== metrics: collection must not change fleet_bench.txt by a byte =="
cp "$SCRATCH/fleet_bench.txt" "$SCRATCH/fleet_bench_nometrics.txt"
TANGO_RESULTS_DIR="$SCRATCH" TANGO_METRICS=1 TANGO_JOBS=1 \
    $HARNESS fleet --smoke > "$SCRATCH/fleet_metrics.out" 2>/dev/null
if ! cmp -s "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_metrics.out"; then
    echo "FAIL: TANGO_METRICS=1 changed harness fleet stdout" >&2
    diff "$SCRATCH/fleet_j1.out" "$SCRATCH/fleet_metrics.out" >&2 || true
    exit 1
fi
if ! cmp -s "$SCRATCH/fleet_bench_nometrics.txt" "$SCRATCH/fleet_bench.txt"; then
    echo "FAIL: TANGO_METRICS=1 changed fleet_bench.txt" >&2
    exit 1
fi
for f in metrics_fleet.txt metrics_fleet.jsonl metrics_fleet.prom; do
    if [ ! -s "$SCRATCH/$f" ]; then
        echo "FAIL: TANGO_METRICS=1 did not write $f" >&2
        exit 1
    fi
done

echo "== metrics: artifacts byte-identical across TANGO_JOBS =="
for f in metrics_fleet.txt metrics_fleet.jsonl metrics_fleet.prom; do
    cp "$SCRATCH/$f" "$SCRATCH/${f}.j1"
done
TANGO_RESULTS_DIR="$SCRATCH" TANGO_METRICS=1 TANGO_JOBS=4 \
    $HARNESS fleet --smoke >/dev/null 2>&1
for f in metrics_fleet.txt metrics_fleet.jsonl metrics_fleet.prom; do
    if ! cmp -s "$SCRATCH/${f}.j1" "$SCRATCH/$f"; then
        echo "FAIL: $f differs across TANGO_JOBS settings" >&2
        diff "$SCRATCH/${f}.j1" "$SCRATCH/$f" >&2 || true
        exit 1
    fi
done
# The smoke fleet is overloaded by construction; its bursty section
# must trip the SLO burn-rate monitor, and the exposition must parse
# under Python as a sanity floor (the binary already ran the in-tree
# grammar checker before writing).
grep -q 'ALERT' "$SCRATCH/metrics_fleet.txt" || {
    echo "FAIL: metrics_fleet.txt contains no burn-rate alert" >&2
    exit 1
}

echo "== metrics: garbage TANGO_METRICS / TANGO_METRICS_WINDOW must exit 2 =="
expect_exit2 TANGO_METRICS=garbage -- $HARNESS fleet --smoke
expect_exit2 TANGO_METRICS_WINDOW=0 TANGO_METRICS=1 -- $HARNESS fleet --smoke

echo "== harness metrics: deterministic windowed registry from one run =="
TANGO_PRESET=tiny $HARNESS metrics gru > "$SCRATCH/metrics1.out" 2>/dev/null
TANGO_PRESET=tiny $HARNESS metrics gru > "$SCRATCH/metrics2.out" 2>/dev/null
if ! cmp -s "$SCRATCH/metrics1.out" "$SCRATCH/metrics2.out"; then
    echo "FAIL: harness metrics differs across identical runs" >&2
    diff "$SCRATCH/metrics1.out" "$SCRATCH/metrics2.out" >&2 || true
    exit 1
fi
grep -q 'tango-metrics' "$SCRATCH/metrics1.out" || {
    echo "FAIL: harness metrics printed no registry header" >&2
    exit 1
}

echo "== harness fleet: garbage TANGO_FLEET_REQUESTS must exit 2 =="
expect_exit2 TANGO_FLEET_REQUESTS=garbage -- $HARNESS fleet --smoke

echo "== repo benchmark: digest gate (--smoke; tier 1 does not build this package) =="
# Every workload at the tiny scale, each result checked against
# benchmark/expected/digests.txt; exits nonzero on any failed op.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== bench_perf: perf baseline artifacts =="
TANGO_PRESET=tiny TANGO_RESULTS_DIR="$SCRATCH" TANGO_JOBS=2 \
    cargo run --release -q -p tango-bench --bin bench_perf >/dev/null
for f in BENCH_sim.json BENCH_serve.json BENCH_fleet.json; do
    if [ ! -s "$SCRATCH/$f" ]; then
        echo "FAIL: bench_perf did not write $f" >&2
        exit 1
    fi
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$SCRATCH/$f" ||
            { echo "FAIL: $f is not valid JSON" >&2; exit 1; }
    fi
done

echo "== bench_perf: bad TANGO_BENCH_SAMPLES must exit 2 =="
expect_exit2 TANGO_BENCH_SAMPLES=garbage -- cargo run --release -q -p tango-bench --bin bench_perf

echo "== committed perf artifacts present =="
for f in results/profile.txt results/BENCH_sim.json results/BENCH_serve.json results/BENCH_fleet.json results/bench_history.jsonl results/fleet_bench.txt; do
    if [ ! -s "$f" ]; then
        echo "FAIL: $f missing or empty (regenerate with repro_all / bench_perf)" >&2
        exit 1
    fi
done

echo "== bench_perf: perf-regression attribution vs committed baselines (bench preset) =="
# Warm-throughput regressions >20% against the committed BENCH_*.json
# warn but do not fail: wall-clock numbers depend on the host, and the
# committed baselines were measured on one particular machine. The
# attribution table pins any drop to its pipeline leg (sim cold/warm,
# serve per network, fleet per policy).
mkdir -p "$SCRATCH/perf"
TANGO_RESULTS_DIR="$SCRATCH/perf" \
    cargo run --release -q -p tango-bench --bin bench_perf >/dev/null
for f in BENCH_sim.json BENCH_serve.json BENCH_fleet.json; do
    $HARNESS perfdiff "results/$f" "$SCRATCH/perf/$f" > "$SCRATCH/perf/${f}.diff"
    if grep -q '^WARN:' "$SCRATCH/perf/${f}.diff"; then
        echo "perf regression in $f — full attribution:"
        cat "$SCRATCH/perf/${f}.diff"
    else
        grep -E '^(perfdiff|no gating rate)' "$SCRATCH/perf/${f}.diff"
    fi
done

echo "== ci.sh: all gates passed =="
