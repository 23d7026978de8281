//! Replayable synthetic load for fleet experiments.
//!
//! Traces are open-loop and fully determined by their seed, so the same
//! load can be replayed against every routing policy — the only honest
//! way to compare policies. Two shapes matter for autoscaling studies:
//!
//! * **diurnal** — a sinusoidally modulated Poisson process (one "day"
//!   compressed into the trace span): slow nights, busy middays. The
//!   autoscaler should track the wave.
//! * **bursty** — a steady Poisson baseline with superimposed
//!   short high-rate bursts: the shape that punishes slow scale-up with
//!   sheds.

use crate::config::ClassSpec;
use tango_nets::NetworkKind;
use tango_serve::KindIndex;
use tango_tensor::SplitMix64;

/// One fleet request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Arrival time in virtual nanoseconds.
    pub at_ns: u64,
    /// Which network it asks for.
    pub kind: NetworkKind,
    /// Priority class index into [`FleetConfig::classes`].
    ///
    /// [`FleetConfig::classes`]: crate::config::FleetConfig::classes
    pub class: usize,
}

/// A pre-generated, time-sorted request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTrace {
    kinds: Vec<NetworkKind>,
    classes: usize,
    requests: Vec<FleetRequest>,
}

/// Thinning-based non-homogeneous Poisson sampler: candidate arrivals
/// at the peak rate, each kept with probability `rate(t) / peak`.
fn thinned_arrivals(
    rng: &mut SplitMix64,
    count: usize,
    peak_gap_ns: u64,
    accept: impl Fn(u64, f64) -> bool,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut t = 0u64;
    while out.len() < count {
        let u = f64::from(rng.next_f32()).clamp(1e-9, 1.0 - 1e-9);
        let gap = (-u.ln() * peak_gap_ns as f64).ceil().max(1.0) as u64;
        t += gap;
        let keep = f64::from(rng.next_f32());
        if accept(t, keep) {
            out.push(t);
        }
    }
    out
}

impl FleetTrace {
    /// A diurnal load: Poisson arrivals whose rate swings sinusoidally
    /// between `1/peak_gap_ns` (midday) and `trough_fraction` of it
    /// (midnight), with period `period_ns`. `count` requests drawn over
    /// `kinds` and `classes` uniformly. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics on empty `kinds`/`classes`, zero `peak_gap_ns` or
    /// `period_ns`, or `trough_fraction` outside `[0, 1]`.
    pub fn diurnal(
        kinds: &[NetworkKind],
        classes: &[ClassSpec],
        count: usize,
        peak_gap_ns: u64,
        period_ns: u64,
        trough_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(!kinds.is_empty(), "trace needs at least one network kind");
        assert!(!classes.is_empty(), "trace needs at least one class");
        assert!(peak_gap_ns > 0 && period_ns > 0, "gaps and period must be positive");
        assert!((0.0..=1.0).contains(&trough_fraction), "trough fraction must be in [0, 1]");
        let mut rng = SplitMix64::new(seed);
        let times = thinned_arrivals(&mut rng, count, peak_gap_ns, |t, keep| {
            // rate(t)/peak = trough + (1-trough) * (1 + sin(2*pi*t/T)) / 2
            let phase = (t % period_ns) as f64 / period_ns as f64 * std::f64::consts::TAU;
            let level = trough_fraction + (1.0 - trough_fraction) * (1.0 + phase.sin()) / 2.0;
            keep < level
        });
        Self::assemble(kinds, classes.len(), times, &mut rng)
    }

    /// A bursty load: a Poisson baseline at `1/base_gap_ns`, except
    /// inside recurring bursts (`burst_every_ns` apart, `burst_len_ns`
    /// long) where the rate multiplies by `burst_factor`. Deterministic
    /// in `seed`.
    ///
    /// # Panics
    ///
    /// Panics on empty `kinds`/`classes` or zero gaps/periods/factor.
    #[allow(clippy::too_many_arguments)]
    pub fn bursty(
        kinds: &[NetworkKind],
        classes: &[ClassSpec],
        count: usize,
        base_gap_ns: u64,
        burst_every_ns: u64,
        burst_len_ns: u64,
        burst_factor: u64,
        seed: u64,
    ) -> Self {
        assert!(!kinds.is_empty(), "trace needs at least one network kind");
        assert!(!classes.is_empty(), "trace needs at least one class");
        assert!(base_gap_ns > 0 && burst_every_ns > 0 && burst_len_ns > 0, "gaps must be positive");
        assert!(burst_factor >= 1, "burst factor must be at least 1");
        assert!(burst_len_ns < burst_every_ns, "bursts must be shorter than their period");
        let mut rng = SplitMix64::new(seed);
        // Peak rate is the burst rate; baseline keeps 1/burst_factor.
        let peak_gap = (base_gap_ns / burst_factor).max(1);
        let baseline_keep = peak_gap as f64 / base_gap_ns as f64;
        let times = thinned_arrivals(&mut rng, count, peak_gap, |t, keep| {
            let in_burst = t % burst_every_ns < burst_len_ns;
            in_burst || keep < baseline_keep
        });
        Self::assemble(kinds, classes.len(), times, &mut rng)
    }

    fn assemble(kinds: &[NetworkKind], classes: usize, times: Vec<u64>, rng: &mut SplitMix64) -> Self {
        let requests = times
            .into_iter()
            .map(|at_ns| FleetRequest {
                at_ns,
                kind: kinds[rng.below(kinds.len() as u64) as usize],
                class: rng.below(classes as u64) as usize,
            })
            .collect();
        FleetTrace {
            kinds: kinds.to_vec(),
            classes,
            requests,
        }
    }

    /// A hand-written trace (for tests). Requests must be time-sorted,
    /// class indices within `classes` and kinds within `kinds`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is unsorted, a class index is out of range
    /// or a request asks for a kind that is not in `kinds`.
    pub fn from_requests(kinds: &[NetworkKind], classes: usize, requests: Vec<FleetRequest>) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "requests must be sorted by time"
        );
        assert!(requests.iter().all(|r| r.class < classes), "class index out of range");
        let index = KindIndex::new(kinds);
        assert!(
            requests.iter().all(|r| index.get(r.kind).is_some()),
            "request kind not in the trace's kinds"
        );
        FleetTrace {
            kinds: kinds.to_vec(),
            classes,
            requests,
        }
    }

    /// The distinct network kinds this trace draws from.
    pub fn kinds(&self) -> &[NetworkKind] {
        &self.kinds
    }

    /// Number of priority classes the trace was drawn over.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The requests, time-sorted.
    pub fn requests(&self) -> &[FleetRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [NetworkKind; 2] = [NetworkKind::Gru, NetworkKind::CifarNet];

    fn classes() -> Vec<ClassSpec> {
        vec![ClassSpec::with_slo("interactive", 1_000_000), ClassSpec::best_effort("batch")]
    }

    #[test]
    fn diurnal_traces_are_deterministic_and_sorted() {
        let a = FleetTrace::diurnal(&KINDS, &classes(), 500, 1000, 1_000_000, 0.2, 42);
        let b = FleetTrace::diurnal(&KINDS, &classes(), 500, 1000, 1_000_000, 0.2, 42);
        assert_eq!(a, b);
        let c = FleetTrace::diurnal(&KINDS, &classes(), 500, 1000, 1_000_000, 0.2, 43);
        assert_ne!(a, c);
        assert!(a.requests().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(a.len(), 500);
        assert!(a.requests().iter().all(|r| r.class < 2));
    }

    #[test]
    fn diurnal_rate_actually_swings() {
        // Count arrivals in the peak half-period vs the trough
        // half-period of each cycle; peaks must dominate.
        let t = FleetTrace::diurnal(&[NetworkKind::Gru], &classes(), 4000, 1000, 1_000_000, 0.1, 7);
        let (mut peak, mut trough) = (0u64, 0u64);
        for r in t.requests() {
            // sin > 0 on the first half-period.
            if r.at_ns % 1_000_000 < 500_000 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak > trough * 2,
            "diurnal peak ({peak}) must far exceed trough ({trough})"
        );
    }

    #[test]
    fn bursty_traces_concentrate_in_bursts() {
        let t = FleetTrace::bursty(&[NetworkKind::Gru], &classes(), 4000, 2000, 1_000_000, 100_000, 10, 11);
        let in_burst = t.requests().iter().filter(|r| r.at_ns % 1_000_000 < 100_000).count();
        let frac = in_burst as f64 / t.len() as f64;
        // Bursts cover 10% of time at 10x rate: > half of all traffic.
        assert!(frac > 0.5, "burst fraction {frac} too low");
        let again = FleetTrace::bursty(&[NetworkKind::Gru], &classes(), 4000, 2000, 1_000_000, 100_000, 10, 11);
        assert_eq!(t, again);
    }

    #[test]
    #[should_panic(expected = "not in the trace's kinds")]
    fn manual_traces_asking_for_a_foreign_kind_are_rejected() {
        let foreign = FleetRequest {
            at_ns: 1,
            kind: NetworkKind::CifarNet,
            class: 0,
        };
        FleetTrace::from_requests(&[NetworkKind::Gru], 1, vec![foreign]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_manual_traces_are_rejected() {
        let r = |at_ns| FleetRequest {
            at_ns,
            kind: NetworkKind::Gru,
            class: 0,
        };
        FleetTrace::from_requests(&[NetworkKind::Gru], 1, vec![r(10), r(5)]);
    }
}
