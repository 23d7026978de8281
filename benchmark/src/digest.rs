//! The correctness gate: a digest of every result, compared with the
//! digests committed in `expected/digests.txt` and with earlier results
//! of the same op in this process.
//!
//! A simulated run has two digests. The *stats* digest covers every
//! simulated statistic of every launch and none of the tensor values;
//! simulated statistics do not depend on the weight seed, so it is
//! checked on every seed. The *full* digest hashes
//! `tango_harness::encode_run` (statistics and output tensor) and is
//! compared with the committed value on the default seed only. On any
//! seed every repetition of an op, memo on or off, must give one digest.

use std::collections::HashMap;
use std::fmt::Write as _;
use tango::NetworkRun;
use tango_fleet::{FleetReport, ShedReason};
use tango_serve::{LatencySummary, ServeReport};

/// `RunSpec.seed` and trace seed when `--seed` is not given — the
/// suite seed of `tango::Characterizer::bench_default`.
pub const DEFAULT_SEED: u64 = 0x7A16_0201_9151;

const EXPECTED: &str = include_str!("../expected/digests.txt");

/// FNV-1a over bytes with a SplitMix64 finisher.
#[derive(Clone, Copy)]
pub struct Hasher(u64);

impl Hasher {
    pub fn new() -> Self {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Digest of `bytes`.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = Hasher::new();
    h.bytes(bytes);
    h.finish()
}

/// Digest of every simulated statistic of `run`, launch by launch.
pub fn stats_digest(run: &NetworkRun) -> u64 {
    let mut h = Hasher::new();
    h.u64(run.footprint_bytes);
    for r in &run.report.records {
        let s = &r.stats;
        h.bytes(r.name.as_bytes());
        for v in [
            s.cycles,
            s.warp_instructions,
            s.thread_instructions,
            s.l1d.accesses,
            s.l1d.hits,
            s.l1d.misses,
            s.l2.accesses,
            s.l2.hits,
            s.l2.misses,
            s.dram_accesses,
            s.const_accesses,
            s.shared_accesses,
            s.ctas_total,
            s.ctas_simulated,
            u64::from(s.regs_per_thread),
            u64::from(s.live_regs_per_thread),
            u64::from(s.max_resident_threads),
            u64::from(s.smem_bytes),
            u64::from(s.cmem_bytes),
        ] {
            h.u64(v);
        }
        for (_, n) in s.stalls.iter() {
            h.u64(n);
        }
        for (op, n) in &s.op_counts {
            h.bytes(op.to_string().as_bytes());
            h.u64(*n);
        }
        for (dtype, n) in &s.dtype_counts {
            h.bytes(dtype.to_string().as_bytes());
            h.u64(*n);
        }
        for v in [s.energy.total(), s.peak_power_w, s.avg_power_w, s.time_s] {
            h.f64(v);
        }
    }
    h.finish()
}

/// Digest of `encode_run(run)`: statistics and output tensor.
pub fn full_digest(run: &NetworkRun) -> u64 {
    digest_bytes(&tango_harness::encode_run(run))
}

fn latency(h: &mut Hasher, summary: Option<LatencySummary>) {
    let s = summary.map_or([0; 4], |s| [s.count as u64, s.p50, s.p95, s.p99]);
    s.into_iter().for_each(|v| h.u64(v));
}

/// Digest of a serve replay: completed, shed, latency percentiles and
/// the batch count behind the mean batch size.
pub fn serve_digest(report: &ServeReport, summary: Option<LatencySummary>) -> u64 {
    let mut h = Hasher::new();
    for v in [
        report.completed() as u64,
        report.shed() as u64,
        report.batches,
        report.makespan,
    ] {
        h.u64(v);
    }
    latency(&mut h, summary);
    h.finish()
}

/// Digest of a fleet replay: completed, shed by reason, per-class
/// latency percentiles and per-pool batches.
pub fn fleet_digest(report: &FleetReport, classes: &[Option<LatencySummary>]) -> u64 {
    let mut h = Hasher::new();
    h.u64(report.completed() as u64);
    for reason in ShedReason::ALL {
        h.u64(report.shed_by(reason) as u64);
    }
    h.u64(report.makespan_ns);
    for &class in classes {
        latency(&mut h, class);
    }
    for pool in &report.pools {
        h.u64(pool.batches);
        h.u64(pool.completed);
    }
    h.finish()
}

/// Counts attempted and failed ops and says why the first few failed.
pub struct Checker {
    /// label -> (stats digest, full digest on the default seed)
    expected: HashMap<String, (Option<u64>, u64)>,
    default_seed: bool,
    /// First full digest each label produced in this process.
    seen: HashMap<String, u64>,
    /// `--learn`: collect lines for `expected/digests.txt`, fail nothing.
    learn: bool,
    learned: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

fn parse_expected(text: &str) -> HashMap<String, (Option<u64>, u64)> {
    let hex = |s: &str| u64::from_str_radix(s, 16).expect("expected/digests.txt holds hex digests");
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "expected/digests.txt line: {l}");
            (
                f[0].to_string(),
                ((f[1] != "-").then(|| hex(f[1])), hex(f[2])),
            )
        })
        .collect()
}

impl Checker {
    pub fn new(seed: u64, learn: bool) -> Self {
        Checker {
            expected: parse_expected(EXPECTED),
            default_seed: seed == DEFAULT_SEED,
            seen: HashMap::new(),
            learn,
            learned: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Records one failed op.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Counts an op that returned `Err`.
    pub fn errored(&mut self, label: &str, err: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.fail(format!("{label}: {err}"));
    }

    /// Checks one op's digests; `stats` is `None` for ops whose result
    /// depends on the seed throughout.
    pub fn check(&mut self, label: &str, stats: Option<u64>, full: u64) {
        self.attempted += 1;
        let fresh = !self.seen.contains_key(label);
        let first = *self.seen.entry(label.to_string()).or_insert(full);
        if first != full {
            return self.fail(format!(
                "{label}: digest {full:016x} differs from this run's first {first:016x}"
            ));
        }
        if self.learn {
            if fresh {
                let stats = stats.map_or("-".to_string(), |s| format!("{s:016x}"));
                self.learned.push(format!("{label} {stats} {full:016x}"));
            }
            return;
        }
        let Some(&(want_stats, want_full)) = self.expected.get(label) else {
            return self.fail(format!(
                "{label}: no digest committed in expected/digests.txt"
            ));
        };
        if stats != want_stats {
            return self.fail(format!(
                "{label}: simulated statistics differ from the committed digest"
            ));
        }
        if self.default_seed && full != want_full {
            self.fail(format!(
                "{label}: digest {full:016x}, committed {want_full:016x}"
            ));
        }
    }

    /// Checks a simulated run under both of its digests.
    pub fn check_run(&mut self, label: &str, run: &NetworkRun) {
        self.check(label, Some(stats_digest(run)), full_digest(run));
    }

    /// The lines `--learn` collected.
    pub fn learned(&self) -> String {
        self.learned.iter().fold(String::new(), |mut out, l| {
            let _ = writeln!(out, "{l}");
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_builds() {
        // Pinned: a change to the hash silently invalidates every
        // committed digest.
        assert_eq!(digest_bytes(b""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(digest_bytes(b"tango"), 0xfac2_a221_f3e2_2740);
        let mut a = Hasher::new();
        a.u64(1);
        a.u64(2);
        let mut b = Hasher::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn committed_digests_parse() {
        let table = parse_expected(EXPECTED);
        assert!(!table.is_empty());
        assert!(parse_expected("# c\n\nx - 00ff\ny 0a 0b\n")["y"] == (Some(10), 11));
    }

    #[test]
    fn checker_fails_on_disagreeing_reps_and_unknown_labels() {
        let mut c = Checker::new(1, false);
        c.check("no-such-op", None, 5);
        assert_eq!((c.attempted, c.failed), (1, 1));
        let mut l = Checker::new(DEFAULT_SEED, true);
        l.check("op", Some(1), 5);
        l.check("op", Some(1), 5);
        assert_eq!(l.failed, 0);
        l.check("op", Some(1), 6);
        assert_eq!(l.failed, 1);
        assert_eq!(l.learned(), "op 0000000000000001 0000000000000005\n");
    }
}
