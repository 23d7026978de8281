use crate::tables::KindIndex;
use tango_nets::NetworkKind;
use tango_tensor::SplitMix64;

/// One inference request in an arrival trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual cycle at which the request reaches the service.
    pub at_cycle: u64,
    /// Which network it asks for.
    pub kind: NetworkKind,
    /// Seed identifying the request payload (`synthetic_input` seed).
    pub input_seed: u64,
}

/// A pre-generated, time-sorted stream of requests.
///
/// Traces are generated ahead of the run (open-loop: arrivals do not
/// react to service latency, the datacenter-side assumption) and fully
/// determined by their seed, so the same trace can be replayed against
/// any engine configuration or worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    kinds: Vec<NetworkKind>,
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// An open-loop Poisson stream: `count` requests whose inter-arrival
    /// gaps are exponentially distributed with mean
    /// `mean_interarrival_cycles`, each uniformly assigned one of
    /// `kinds` and one of `distinct_inputs` payload seeds. Fully
    /// deterministic in `seed`.
    ///
    /// Small `distinct_inputs` values model a skewed request population
    /// (the case batching and store-caching exploit); large values model
    /// unique traffic.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty, `mean_interarrival_cycles` is zero,
    /// or `distinct_inputs` is zero.
    pub fn open_loop(
        kinds: &[NetworkKind],
        count: usize,
        mean_interarrival_cycles: u64,
        distinct_inputs: u64,
        seed: u64,
    ) -> Self {
        assert!(!kinds.is_empty(), "trace needs at least one network kind");
        assert!(mean_interarrival_cycles > 0, "mean inter-arrival must be positive");
        assert!(distinct_inputs > 0, "need at least one distinct input");
        let mut rng = SplitMix64::new(seed);
        let mut at_cycle = 0u64;
        let arrivals = (0..count)
            .map(|_| {
                // Inverse-CDF exponential sampling, clamped to ≥ 1 cycle
                // so arrivals keep strictly increasing pressure.
                let u = f64::from(rng.next_f32()).clamp(1e-9, 1.0 - 1e-9);
                let gap = (-u.ln() * mean_interarrival_cycles as f64).ceil().max(1.0) as u64;
                at_cycle += gap;
                Arrival {
                    at_cycle,
                    kind: kinds[rng.below(kinds.len() as u64) as usize],
                    input_seed: rng.below(distinct_inputs),
                }
            })
            .collect();
        ArrivalTrace {
            kinds: kinds.to_vec(),
            arrivals,
        }
    }

    /// A hand-written trace (for tests). Arrivals must be time-sorted
    /// and ask only for networks in `kinds`.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by `at_cycle` or one asks for
    /// a kind that is not in `kinds`.
    pub fn from_arrivals(kinds: &[NetworkKind], arrivals: Vec<Arrival>) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle),
            "arrivals must be sorted by time"
        );
        let index = KindIndex::new(kinds);
        assert!(
            arrivals.iter().all(|a| index.get(a.kind).is_some()),
            "arrival kind not in the trace's kinds"
        );
        ArrivalTrace {
            kinds: kinds.to_vec(),
            arrivals,
        }
    }

    /// The distinct network kinds this trace draws from.
    pub fn kinds(&self) -> &[NetworkKind] {
        &self.kinds
    }

    /// The requests, time-sorted.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_traces_are_deterministic_and_sorted() {
        let kinds = [NetworkKind::Gru, NetworkKind::CifarNet];
        let a = ArrivalTrace::open_loop(&kinds, 200, 1000, 4, 42);
        let b = ArrivalTrace::open_loop(&kinds, 200, 1000, 4, 42);
        assert_eq!(a, b, "same seed must reproduce the same trace");
        let c = ArrivalTrace::open_loop(&kinds, 200, 1000, 4, 43);
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.arrivals().windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert_eq!(a.len(), 200);
        assert!(a.arrivals().iter().all(|r| kinds.contains(&r.kind) && r.input_seed < 4));
    }

    #[test]
    fn mean_gap_tracks_the_requested_rate() {
        let trace = ArrivalTrace::open_loop(&[NetworkKind::Gru], 2000, 500, 1, 7);
        let span = trace.arrivals().last().unwrap().at_cycle as f64;
        let mean = span / 2000.0;
        assert!(
            (mean / 500.0 - 1.0).abs() < 0.15,
            "empirical mean gap {mean} should be near 500"
        );
    }

    #[test]
    #[should_panic(expected = "not in the trace's kinds")]
    fn manual_traces_asking_for_a_foreign_kind_are_rejected() {
        ArrivalTrace::from_arrivals(
            &[NetworkKind::Gru],
            vec![Arrival {
                at_cycle: 1,
                kind: NetworkKind::CifarNet,
                input_seed: 0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_manual_traces_are_rejected() {
        let k = NetworkKind::Gru;
        ArrivalTrace::from_arrivals(
            &[k],
            vec![
                Arrival {
                    at_cycle: 10,
                    kind: k,
                    input_seed: 0,
                },
                Arrival {
                    at_cycle: 5,
                    kind: k,
                    input_seed: 0,
                },
            ],
        );
    }
}
