use crate::tables::KindIndex;
use std::sync::Arc;
use tango_nets::NetworkKind;
use tango_tensor::SplitMix64;

/// One inference request in an arrival trace, as
/// [`ArrivalTrace::get`] decodes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual cycle at which the request reaches the service.
    pub at_cycle: u64,
    /// Which network it asks for.
    pub kind: NetworkKind,
}

/// Bits of a trace word below its arrival cycle: the kind's index.
const KIND_BITS: u32 = 8;
/// Kinds a trace can index.
const MAX_KINDS: usize = 1 << KIND_BITS;
/// First arrival cycle a trace word cannot hold.
const CYCLE_LIMIT: u64 = 1 << (64 - KIND_BITS);

/// Packs a request into its trace word: `at_cycle << 8 | kind index`.
fn pack(at_cycle: u64, kind: usize) -> u64 {
    at_cycle << KIND_BITS | kind as u64
}

/// A trace word's arrival cycle and index into the trace's kinds.
#[inline]
pub(crate) fn unpack(word: u64) -> (u64, usize) {
    (word >> KIND_BITS, (word & ((1 << KIND_BITS) - 1)) as usize)
}

/// Checks the limits a trace word holds: at most 256 kinds, and a last
/// arrival (the latest, the trace being sorted) below 2^56 cycles.
fn check_limits(kinds: usize, last_cycle: u64) {
    assert!(kinds <= MAX_KINDS, "a trace holds at most 256 network kinds");
    assert!(last_cycle < CYCLE_LIMIT, "arrival cycles must be below 2^56");
}

/// A pre-generated, time-sorted stream of requests.
///
/// Traces are generated ahead of the run (open-loop: arrivals do not
/// react to service latency, the datacenter-side assumption) and fully
/// determined by their seed, so the same trace can be replayed against
/// any engine configuration or worker count. Each request is one
/// 8-byte word, `at_cycle << 8 | kind index`, whose index points into
/// [`kinds`](Self::kinds) (at a kind's first occurrence there). The
/// words are shared: a clone of the trace, or a [`ServeReport`]
/// replayed from it, holds the same allocation.
///
/// [`ServeReport`]: crate::ServeReport
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    kinds: Vec<NetworkKind>,
    words: Arc<[u64]>,
}

impl ArrivalTrace {
    /// An open-loop Poisson stream: `count` requests whose inter-arrival
    /// gaps are exponentially distributed with mean
    /// `mean_interarrival_cycles`, each uniformly assigned one of
    /// `kinds` and drawing one of `distinct_inputs` payload seeds.
    /// Fully deterministic in `seed`.
    ///
    /// The payload seed is drawn and dropped: the engine costs a batch
    /// by its kind and size alone. Drawing it keeps every trace equal to
    /// the one the same seed always gave.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or holds more than 256 entries,
    /// `mean_interarrival_cycles` is zero, `distinct_inputs` is zero, or
    /// the last arrival falls at or past cycle 2^56.
    pub fn open_loop(
        kinds: &[NetworkKind],
        count: usize,
        mean_interarrival_cycles: u64,
        distinct_inputs: u32,
        seed: u64,
    ) -> Self {
        assert!(!kinds.is_empty(), "trace needs at least one network kind");
        assert!(mean_interarrival_cycles > 0, "mean inter-arrival must be positive");
        assert!(distinct_inputs > 0, "need at least one distinct input");
        let index = KindIndex::new(kinds);
        let slot: Vec<usize> = kinds.iter().map(|&k| index.get(k).expect("indexed")).collect();
        let mut rng = SplitMix64::new(seed);
        let mut at_cycle = 0u64;
        // A mapped range has an exact length, so this fills the shared
        // allocation in place.
        let words: Arc<[u64]> = (0..count)
            .map(|_| {
                // Inverse-CDF exponential sampling, clamped to ≥ 1 cycle
                // so arrivals keep strictly increasing pressure.
                let u = f64::from(rng.next_f32()).clamp(1e-9, 1.0 - 1e-9);
                let gap = (-u.ln() * mean_interarrival_cycles as f64).ceil().max(1.0) as u64;
                at_cycle += gap;
                let kind = slot[rng.below(kinds.len() as u64) as usize];
                rng.below(u64::from(distinct_inputs));
                pack(at_cycle, kind)
            })
            .collect();
        check_limits(kinds.len(), at_cycle);
        ArrivalTrace {
            kinds: kinds.to_vec(),
            words,
        }
    }

    /// A hand-written trace (for tests). Arrivals must be time-sorted
    /// and ask only for networks in `kinds`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by `at_cycle`, one asks for a
    /// kind that is not in `kinds`, `kinds` holds more than 256 entries
    /// or the last arrival falls at or past cycle 2^56.
    pub fn from_arrivals(kinds: &[NetworkKind], arrivals: Vec<Arrival>) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle),
            "arrivals must be sorted by time"
        );
        check_limits(kinds.len(), arrivals.last().map_or(0, |a| a.at_cycle));
        let index = KindIndex::new(kinds);
        let words = arrivals
            .iter()
            .map(|a| {
                let kind = index.get(a.kind).expect("arrival kind not in the trace's kinds");
                pack(a.at_cycle, kind)
            })
            .collect();
        ArrivalTrace {
            kinds: kinds.to_vec(),
            words,
        }
    }

    /// The distinct network kinds this trace draws from.
    pub fn kinds(&self) -> &[NetworkKind] {
        &self.kinds
    }

    /// Request `i` (time order), or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Arrival> {
        self.words.get(i).map(|&w| self.decode(w))
    }

    /// Every request, time-sorted.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Arrival> + '_ {
        self.words.iter().map(|&w| self.decode(w))
    }

    fn decode(&self, word: u64) -> Arrival {
        let (at_cycle, kind) = unpack(word);
        Arrival {
            at_cycle,
            kind: self.kinds[kind],
        }
    }

    /// Heap bytes of the request words (8 a request), which every
    /// clone and report of this trace shares.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&*self.words)
    }

    /// The packed requests, as the shared allocation a report keeps.
    pub(crate) fn words(&self) -> &Arc<[u64]> {
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

    const GRU: NetworkKind = NetworkKind::Gru;

    fn at(at_cycle: u64, kind: NetworkKind) -> Arrival {
        Arrival { at_cycle, kind }
    }

    #[test]
    fn open_loop_traces_are_deterministic_and_sorted() {
        let kinds = [GRU, NetworkKind::CifarNet];
        let a = ArrivalTrace::open_loop(&kinds, 200, 1000, 4, 42);
        let b = ArrivalTrace::open_loop(&kinds, 200, 1000, 4, 42);
        assert_eq!(a, b, "same seed must reproduce the same trace");
        let c = ArrivalTrace::open_loop(&kinds, 200, 1000, 4, 43);
        assert_ne!(a, c, "different seeds must differ");
        let arrivals: Vec<Arrival> = a.iter().collect();
        assert!(arrivals.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert_eq!(a.len(), 200);
        assert!(arrivals.iter().all(|r| kinds.contains(&r.kind)));
    }

    #[test]
    fn mean_gap_tracks_the_requested_rate() {
        let trace = ArrivalTrace::open_loop(&[GRU], 2000, 500, 1, 7);
        let span = trace.get(trace.len() - 1).unwrap().at_cycle as f64;
        let mean = span / 2000.0;
        assert!(
            (mean / 500.0 - 1.0).abs() < 0.15,
            "empirical mean gap {mean} should be near 500"
        );
    }

    #[test]
    fn manual_traces_read_back_as_written_at_eight_bytes_a_request() {
        // A kind named twice decodes as itself from its first slot.
        let kinds = [GRU, NetworkKind::CifarNet, GRU, NetworkKind::Lstm];
        let arrivals = vec![
            at(0, NetworkKind::Lstm),
            at(0, GRU),
            at(7, NetworkKind::CifarNet),
            at(CYCLE_LIMIT - 1, NetworkKind::Lstm),
        ];
        let trace = ArrivalTrace::from_arrivals(&kinds, arrivals.clone());
        assert_eq!(trace.iter().collect::<Vec<_>>(), arrivals);
        assert_eq!(trace.iter().len(), 4);
        for (i, &a) in arrivals.iter().enumerate() {
            assert_eq!(trace.get(i), Some(a));
        }
        assert_eq!(trace.get(4), None);
        assert_eq!(trace.heap_bytes() / trace.len(), 8);
        let drawn = ArrivalTrace::open_loop(&kinds, 300, 100, 4, 1);
        assert_eq!(drawn.heap_bytes(), 8 * 300);
        assert_eq!(ArrivalTrace::from_arrivals(&kinds, drawn.iter().collect()), drawn);
    }

    #[test]
    fn the_limits_are_inclusive_of_their_bounds() {
        let kinds = vec![GRU; MAX_KINDS];
        let trace = ArrivalTrace::from_arrivals(&kinds, vec![at(CYCLE_LIMIT - 1, GRU)]);
        assert_eq!(trace.get(0), Some(at(CYCLE_LIMIT - 1, GRU)));
        assert_eq!(ArrivalTrace::open_loop(&kinds, 10, 100, 1, 3).len(), 10);
    }

    #[test]
    #[should_panic(expected = "below 2^56")]
    fn an_arrival_at_cycle_2_pow_56_is_rejected() {
        ArrivalTrace::from_arrivals(&[GRU], vec![at(0, GRU), at(CYCLE_LIMIT, GRU)]);
    }

    #[test]
    #[should_panic(expected = "at most 256 network kinds")]
    fn a_257th_kind_is_rejected() {
        ArrivalTrace::from_arrivals(&[GRU; MAX_KINDS + 1], Vec::new());
    }

    #[test]
    #[should_panic(expected = "at most 256 network kinds")]
    fn open_loop_over_257_kinds_is_rejected() {
        ArrivalTrace::open_loop(&[GRU; MAX_KINDS + 1], 1, 100, 1, 3);
    }

    #[test]
    #[should_panic(expected = "not in the trace's kinds")]
    fn manual_traces_asking_for_a_foreign_kind_are_rejected() {
        ArrivalTrace::from_arrivals(&[GRU], vec![at(1, NetworkKind::CifarNet)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_manual_traces_are_rejected() {
        ArrivalTrace::from_arrivals(&[GRU], vec![at(10, GRU), at(5, GRU)]);
    }
}
