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

/// One fleet request, as [`FleetTrace::get`] decodes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Arrival time in virtual nanoseconds.
    pub at_ns: u64,
    /// Which network it asks for.
    pub kind: NetworkKind,
    /// Priority class index into [`FleetConfig::classes`].
    ///
    /// [`FleetConfig::classes`]: crate::config::FleetConfig::classes
    pub class: u32,
}

/// Bits of a trace word below its arrival time: a class index over a
/// kind index, 8 bits each.
const INDEX_BITS: u32 = 16;
/// Kinds, and classes, a trace can index.
const MAX_INDEX: usize = 1 << 8;
/// First arrival nanosecond a trace word cannot hold (~78 h).
const NS_LIMIT: u64 = 1 << (64 - INDEX_BITS);

/// Packs a request into its trace word: `at_ns << 16 | class << 8 | kind`.
fn pack(at_ns: u64, class: usize, kind: usize) -> u64 {
    at_ns << INDEX_BITS | (class << 8 | kind) as u64
}

/// A trace word's arrival nanosecond, class index and kind index.
#[inline]
pub(crate) fn unpack(word: u64) -> (u64, usize, usize) {
    (word >> INDEX_BITS, (word >> 8 & 0xff) as usize, (word & 0xff) as usize)
}

/// Checks the limits a trace word holds: at most 256 kinds and 256
/// classes, and a last arrival (the latest, the trace being sorted)
/// below 2^48 ns.
fn check_limits(kinds: usize, classes: usize, last_ns: u64) {
    assert!(kinds <= MAX_INDEX, "a trace holds at most 256 network kinds");
    assert!(classes <= MAX_INDEX, "a trace holds at most 256 classes");
    assert!(last_ns < NS_LIMIT, "arrival times must be below 2^48 ns");
}

/// A pre-generated, time-sorted request stream.
///
/// Each request is one 8-byte word, `at_ns << 16 | class << 8 | kind
/// index`, whose kind index points into [`kinds`](Self::kinds) (at a
/// kind's first occurrence there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTrace {
    kinds: Vec<NetworkKind>,
    classes: usize,
    words: Vec<u64>,
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
    /// `period_ns`, `trough_fraction` outside `[0, 1]`, more than 256
    /// kinds or classes, or a last arrival at or past 2^48 ns.
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
        assert!(
            (0.0..=1.0).contains(&trough_fraction),
            "trough fraction must be in [0, 1]"
        );
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
    /// Panics on empty `kinds`/`classes`, zero gaps/periods/factor,
    /// more than 256 kinds or classes, or a last arrival at or past
    /// 2^48 ns.
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
        assert!(
            base_gap_ns > 0 && burst_every_ns > 0 && burst_len_ns > 0,
            "gaps must be positive"
        );
        assert!(burst_factor >= 1, "burst factor must be at least 1");
        assert!(
            burst_len_ns < burst_every_ns,
            "bursts must be shorter than their period"
        );
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
        check_limits(kinds.len(), classes, times.last().map_or(0, |&t| t));
        let index = KindIndex::new(kinds);
        let slot: Vec<usize> = kinds.iter().map(|&k| index.get(k).expect("indexed")).collect();
        // Each time becomes its word in place: the stream is allocated once.
        let words = times
            .into_iter()
            .map(|at_ns| {
                let kind = slot[rng.below(kinds.len() as u64) as usize];
                pack(at_ns, rng.below(classes as u64) as usize, kind)
            })
            .collect();
        FleetTrace {
            kinds: kinds.to_vec(),
            classes,
            words,
        }
    }

    /// A hand-written trace (for tests). Requests must be time-sorted,
    /// class indices within `classes` and kinds within `kinds`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is unsorted, a class index is out of range,
    /// a request asks for a kind that is not in `kinds`, `kinds` or
    /// `classes` exceeds 256, or the last arrival is at or past 2^48 ns.
    pub fn from_requests(kinds: &[NetworkKind], classes: usize, requests: Vec<FleetRequest>) -> Self {
        assert!(
            requests.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "requests must be sorted by time"
        );
        check_limits(kinds.len(), classes, requests.last().map_or(0, |r| r.at_ns));
        let index = KindIndex::new(kinds);
        let words = requests
            .iter()
            .map(|r| {
                let class = r.class as usize;
                assert!(class < classes, "class index out of range");
                let kind = index.get(r.kind).expect("request kind not in the trace's kinds");
                pack(r.at_ns, class, kind)
            })
            .collect();
        FleetTrace {
            kinds: kinds.to_vec(),
            classes,
            words,
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

    /// Request `i` (time order), or `None` past the end.
    pub fn get(&self, i: usize) -> Option<FleetRequest> {
        self.words.get(i).map(|&w| self.decode(w))
    }

    /// Every request, time-sorted.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FleetRequest> + '_ {
        self.words.iter().map(|&w| self.decode(w))
    }

    fn decode(&self, word: u64) -> FleetRequest {
        let (at_ns, class, kind) = unpack(word);
        FleetRequest {
            at_ns,
            kind: self.kinds[kind],
            class: class as u32,
        }
    }

    /// Heap bytes of the request words: 8 a request.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>()
    }

    /// The packed requests, time-sorted.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [NetworkKind; 2] = [NetworkKind::Gru, NetworkKind::CifarNet];

    fn classes() -> Vec<ClassSpec> {
        vec![
            ClassSpec::with_slo("interactive", 1_000_000),
            ClassSpec::best_effort("batch"),
        ]
    }

    #[test]
    fn diurnal_traces_are_deterministic_and_sorted() {
        let a = FleetTrace::diurnal(&KINDS, &classes(), 500, 1000, 1_000_000, 0.2, 42);
        let b = FleetTrace::diurnal(&KINDS, &classes(), 500, 1000, 1_000_000, 0.2, 42);
        assert_eq!(a, b);
        let c = FleetTrace::diurnal(&KINDS, &classes(), 500, 1000, 1_000_000, 0.2, 43);
        assert_ne!(a, c);
        let requests: Vec<FleetRequest> = a.iter().collect();
        assert!(requests.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(a.len(), 500);
        assert!(requests.iter().all(|r| r.class < 2 && KINDS.contains(&r.kind)));
    }

    #[test]
    fn diurnal_rate_actually_swings() {
        // Count arrivals in the peak half-period vs the trough
        // half-period of each cycle; peaks must dominate.
        let t = FleetTrace::diurnal(&[NetworkKind::Gru], &classes(), 4000, 1000, 1_000_000, 0.1, 7);
        let (mut peak, mut trough) = (0u64, 0u64);
        for r in t.iter() {
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
        let in_burst = t.iter().filter(|r| r.at_ns % 1_000_000 < 100_000).count();
        let frac = in_burst as f64 / t.len() as f64;
        // Bursts cover 10% of time at 10x rate: > half of all traffic.
        assert!(frac > 0.5, "burst fraction {frac} too low");
        let again = FleetTrace::bursty(&[NetworkKind::Gru], &classes(), 4000, 2000, 1_000_000, 100_000, 10, 11);
        assert_eq!(t, again);
    }

    fn request(at_ns: u64, kind: NetworkKind, class: u32) -> FleetRequest {
        FleetRequest { at_ns, kind, class }
    }

    #[test]
    fn manual_traces_read_back_as_written_at_eight_bytes_a_request() {
        // A kind named twice decodes as itself from its first slot.
        let kinds = [
            NetworkKind::Gru,
            NetworkKind::CifarNet,
            NetworkKind::Gru,
            NetworkKind::Lstm,
        ];
        let requests = vec![
            request(0, NetworkKind::Lstm, 2),
            request(0, NetworkKind::Gru, 0),
            request(7, NetworkKind::CifarNet, 1),
            request(NS_LIMIT - 1, NetworkKind::Lstm, 2),
        ];
        let trace = FleetTrace::from_requests(&kinds, 3, requests.clone());
        assert_eq!(trace.iter().collect::<Vec<_>>(), requests);
        assert_eq!(trace.iter().len(), 4);
        for (i, &r) in requests.iter().enumerate() {
            assert_eq!(trace.get(i), Some(r));
        }
        assert_eq!(trace.get(4), None);
        assert_eq!(trace.heap_bytes() / trace.len(), 8);
        let drawn = FleetTrace::diurnal(&kinds, &classes(), 300, 1000, 1_000_000, 0.2, 5);
        assert_eq!(drawn.heap_bytes(), 8 * 300);
        assert_eq!(FleetTrace::from_requests(&kinds, 2, drawn.iter().collect()), drawn);
    }

    #[test]
    fn the_limits_are_inclusive_of_their_bounds() {
        let kinds = vec![NetworkKind::Gru; MAX_INDEX];
        let last = request(NS_LIMIT - 1, NetworkKind::Gru, MAX_INDEX as u32 - 1);
        let trace = FleetTrace::from_requests(&kinds, MAX_INDEX, vec![last]);
        assert_eq!(trace.get(0), Some(last));
        let classes = vec![ClassSpec::best_effort("batch"); MAX_INDEX];
        assert_eq!(
            FleetTrace::bursty(&kinds, &classes, 10, 2000, 1_000_000, 100_000, 10, 11).len(),
            10
        );
    }

    #[test]
    #[should_panic(expected = "below 2^48 ns")]
    fn an_arrival_at_2_pow_48_ns_is_rejected() {
        let gru = |at_ns| request(at_ns, NetworkKind::Gru, 0);
        FleetTrace::from_requests(&[NetworkKind::Gru], 1, vec![gru(0), gru(NS_LIMIT)]);
    }

    #[test]
    #[should_panic(expected = "at most 256 network kinds")]
    fn a_257th_kind_is_rejected() {
        FleetTrace::from_requests(&[NetworkKind::Gru; MAX_INDEX + 1], 1, Vec::new());
    }

    #[test]
    #[should_panic(expected = "at most 256 classes")]
    fn a_257th_class_is_rejected() {
        FleetTrace::from_requests(&[NetworkKind::Gru], MAX_INDEX + 1, Vec::new());
    }

    #[test]
    #[should_panic(expected = "at most 256 classes")]
    fn a_diurnal_trace_over_257_classes_is_rejected() {
        let classes = vec![ClassSpec::best_effort("batch"); MAX_INDEX + 1];
        FleetTrace::diurnal(&KINDS, &classes, 1, 1000, 1_000_000, 0.2, 5);
    }

    #[test]
    #[should_panic(expected = "not in the trace's kinds")]
    fn manual_traces_asking_for_a_foreign_kind_are_rejected() {
        FleetTrace::from_requests(&[NetworkKind::Gru], 1, vec![request(1, NetworkKind::CifarNet, 0)]);
    }

    #[test]
    #[should_panic(expected = "class index out of range")]
    fn manual_traces_naming_a_foreign_class_are_rejected() {
        FleetTrace::from_requests(&[NetworkKind::Gru], 1, vec![request(1, NetworkKind::Gru, 1)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_manual_traces_are_rejected() {
        let gru = |at_ns| request(at_ns, NetworkKind::Gru, 0);
        FleetTrace::from_requests(&[NetworkKind::Gru], 1, vec![gru(10), gru(5)]);
    }
}
