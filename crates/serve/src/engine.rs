//! The virtual-time serving engine.
//!
//! A discrete-event simulation of the service: requests arrive from a
//! pre-generated [`ArrivalTrace`], wait in bounded per-network queues,
//! are flushed to a pool of devices by the time/size-bounded batcher,
//! and execute for the cycle count the [`CostModel`] assigns their
//! batch. Every timestamp is a virtual cycle, so latency percentiles
//! and throughput are exact, reproducible quantities — independent of
//! host load, thread scheduling, and worker count (the engine is a
//! serial loop; only cost-model *precomputation* parallelizes).
//!
//! Event ordering at a single cycle is fixed by construction: device
//! completions are applied first, then arrivals (in trace order), then
//! dispatches. Dispatch ties between ready queues break on (oldest head
//! request, kind order in the trace); devices are assigned
//! lowest-index-first. Any change in these rules is a behavior change,
//! not noise.

use crate::cost::CostModel;
use crate::error::Result;
use crate::metrics::LatencySummary;
use crate::policy::ServeConfig;
use crate::pool::DeviceSet;
use crate::tables::CostTable;
use crate::trace::{unpack, Arrival, ArrivalTrace};
use crate::ServeError;
use std::collections::VecDeque;
use std::fmt;
use std::mem::size_of;
use tango_nets::NetworkKind;
use tango_obs::{Domain, Phase};

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Admitted, batched, executed.
    Completed {
        /// Cycle the batch left the queue for a device.
        dispatched: u64,
        /// Cycle execution finished (= completion of the whole batch).
        completed: u64,
        /// Requests in the batch it rode in.
        batch: u32,
        /// Device that ran the batch.
        device: usize,
    },
    /// Rejected at admission: the queue was at its bound.
    Shed {
        /// Queue occupancy at rejection.
        queue_len: usize,
    },
}

/// Full accounting for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// The network requested.
    pub kind: NetworkKind,
    /// Arrival cycle (from the trace).
    pub arrival: u64,
    /// Admission / completion outcome.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// End-to-end latency (queue wait + batch assembly + execution), or
    /// `None` when the request was shed.
    pub fn latency(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Completed { completed, .. } => Some(completed - self.arrival),
            Outcome::Shed { .. } => None,
        }
    }

    /// Time spent queued before its batch was dispatched.
    pub fn queue_wait(&self) -> Option<u64> {
        match self.outcome {
            Outcome::Completed { dispatched, .. } => Some(dispatched - self.arrival),
            Outcome::Shed { .. } => None,
        }
    }
}

/// `RequestLog::batch_of` of a request shed at admission.
const SHED: u32 = u32::MAX;

/// One dispatched batch: what its riders' [`Outcome::Completed`] say.
#[derive(Clone, Copy)]
struct Batch {
    dispatched: u64,
    completed: u64,
    device: u32,
    size: u32,
}

const _: () = assert!(size_of::<Batch>() == 24);

/// Per-request accounting of a run, in trace order, at 4 bytes a
/// request plus 24 a batch.
///
/// A request's kind and arrival are its trace's, whose words the log
/// shares rather than copies; the log itself keeps only the index of
/// the batch each request rode in ([`SHED`] for a shed) and the
/// batches. A shed always met a full queue, so its `queue_len` is the
/// config's bound. [`get`](Self::get) and [`iter`](Self::iter) rebuild
/// each [`RequestRecord`] by value; `Debug` and `==` go through them,
/// so both read as the list of records.
#[derive(Clone)]
pub struct RequestLog {
    trace: ArrivalTrace,
    batch_of: Vec<u32>,
    batches: Vec<Batch>,
    queue_bound: usize,
}

impl RequestLog {
    /// Requests in the trace, completed or shed.
    pub fn len(&self) -> usize {
        self.batch_of.len()
    }

    /// Whether the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.batch_of.is_empty()
    }

    /// The record of request `i` (trace order), or `None` past the end.
    pub fn get(&self, i: usize) -> Option<RequestRecord> {
        Some(self.record(self.trace.get(i)?, self.batch_of[i]))
    }

    /// Every record, in trace order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RequestRecord> + '_ {
        self.trace.iter().zip(&self.batch_of).map(|(a, &b)| self.record(a, b))
    }

    fn record(&self, arrival: Arrival, batch: u32) -> RequestRecord {
        let outcome = match batch {
            SHED => Outcome::Shed {
                queue_len: self.queue_bound,
            },
            b => {
                let b = self.batches[b as usize];
                Outcome::Completed {
                    dispatched: b.dispatched,
                    completed: b.completed,
                    batch: b.size,
                    device: b.device as usize,
                }
            }
        };
        RequestRecord {
            kind: arrival.kind,
            arrival: arrival.at_cycle,
            outcome,
        }
    }
}

impl fmt::Debug for RequestLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for RequestLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// The result of replaying a trace through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request accounting, in trace order.
    pub records: RequestLog,
    /// Cycle the last batch completed (0 for an empty trace).
    pub makespan: u64,
    /// Batches dispatched.
    pub batches: u64,
}

impl ServeReport {
    /// Requests that completed.
    pub fn completed(&self) -> usize {
        self.records.batches.iter().map(|b| b.size as usize).sum()
    }

    /// Requests shed at admission.
    pub fn shed(&self) -> usize {
        self.records.len() - self.completed()
    }

    /// Latency summary over completed requests (`None` if none did).
    pub fn latency_summary(&self) -> Option<LatencySummary> {
        let mut latencies = Vec::with_capacity(self.completed());
        latencies.extend(self.records.iter().filter_map(|r| r.latency()));
        LatencySummary::from_latencies(latencies)
    }

    /// Completed requests per million cycles of makespan.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed() as f64 * 1e6 / self.makespan as f64
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed() as f64 / self.batches as f64
    }

    /// Heap bytes the report owns: its batch index per request and its
    /// batches. The request words it shares belong to the trace.
    pub fn heap_bytes(&self) -> usize {
        let log = &self.records;
        log.batch_of.capacity() * size_of::<u32>() + log.batches.capacity() * size_of::<Batch>()
    }
}

struct Queued {
    record_idx: usize,
    arrival: u64,
}

/// Trace-track base for per-kind queue events, clear of the device
/// tracks (devices use their pool index).
const QUEUE_TRACK_BASE: u32 = 1000;

/// Replays `trace` against a device pool under `config`, costing every
/// batch with `cost`. Serial and fully deterministic.
///
/// # Errors
///
/// Returns [`crate::ServeError::Config`] for an invalid `config`, a
/// trace of more than `u32::MAX` requests or a pool of more than
/// `u32::MAX` devices, and propagates cost-model (simulation) failures.
pub fn run_trace(trace: &ArrivalTrace, config: &ServeConfig, cost: &dyn CostModel) -> Result<ServeReport> {
    config.validate()?;
    if u32::try_from(trace.len()).is_err() || u32::try_from(config.devices).is_err() {
        return Err(ServeError::Config(
            "a report indexes requests and devices by u32: at most u32::MAX of each".into(),
        ));
    }
    let kinds = trace.kinds();
    // Batch cycles are pure in (kind, batch): ask the model once each.
    let mut costs: CostTable<u64> = CostTable::new(kinds.len());

    let arrivals: &[u64] = trace.words();
    // Admission appends each request's entry; its batch's dispatch
    // overwrites an admitted one's `SHED` with the batch index.
    let mut batch_of: Vec<u32> = Vec::with_capacity(arrivals.len());
    let mut log_batches: Vec<Batch> = Vec::new();

    let mut queues: Vec<VecDeque<Queued>> = kinds.iter().map(|_| VecDeque::new()).collect();
    // Busy devices retire by completion time; free ones dispatch
    // lowest-index-first — both orders live in the shared DeviceSet.
    let mut devices = DeviceSet::new(config.devices);
    let mut next_arrival = 0usize;
    let mut now = 0u64;
    let mut makespan = 0u64;
    let mut shed_total = 0i64;
    let max_batch = config.policy.max_batch as usize;
    let max_delay = config.policy.max_delay_cycles;

    loop {
        // 1. Retire every batch whose device finished by `now`.
        devices.complete_until(now);

        // 2. Admit (or shed) every arrival due by `now`, in trace order.
        while let Some(&word) = arrivals.get(next_arrival) {
            let (at_cycle, k) = unpack(word);
            if at_cycle > now {
                break;
            }
            let qtrack = QUEUE_TRACK_BASE + k as u32;
            let queue = &mut queues[k];
            if queue.len() >= config.queue_bound {
                debug_assert_eq!(queue.len(), config.queue_bound, "a queue never passes its bound");
                shed_total += 1;
                tango_obs::track_event_at(Domain::Engine, now, qtrack, Phase::Instant, "serve.request", "shed", 0);
                tango_obs::track_event_at(
                    Domain::Engine,
                    now,
                    qtrack,
                    Phase::Counter,
                    "serve.queue",
                    "shed_total",
                    shed_total,
                );
            } else {
                // Request lifecycle opens here (enqueue) and closes when
                // its batch completes; async spans because requests on
                // one queue overlap freely.
                tango_obs::track_event_at(
                    Domain::Engine,
                    at_cycle,
                    qtrack,
                    Phase::AsyncBegin,
                    "serve.request",
                    kinds[k].name(),
                    next_arrival as i64,
                );
                queue.push_back(Queued {
                    record_idx: next_arrival,
                    arrival: at_cycle,
                });
                tango_obs::track_event_at(
                    Domain::Engine,
                    now,
                    qtrack,
                    Phase::Counter,
                    "serve.queue",
                    "depth",
                    queue.len() as i64,
                );
            }
            // An admitted request takes its batch's index when that
            // dispatches; a request still queued at trace end simply
            // waits for a device (the loop drains queues before exiting).
            batch_of.push(SHED);
            next_arrival += 1;
        }

        // 3. Dispatch ready queues onto free devices. A queue is ready
        //    when it holds a full batch or its head has aged past the
        //    delay bound; ties prefer the oldest head, then kind order.
        while devices.peek_free().is_some() {
            let ready = queues
                .iter()
                .enumerate()
                .filter_map(|(k, q)| {
                    let head = q.front()?;
                    let full = q.len() >= max_batch;
                    let aged = now >= head.arrival.saturating_add(max_delay);
                    (full || aged).then_some((head.arrival, k))
                })
                .min();
            let Some((_, k)) = ready else { break };
            let queue = &mut queues[k];
            let batch_len = queue.len().min(max_batch);
            let exec = costs.get(k, batch_len as u32, || cost.batch_cycles(kinds[k], batch_len as u32))?;
            let completed = now + exec.max(1);
            let device = devices.dispatch(now, completed).expect("peeked free device");
            let qtrack = QUEUE_TRACK_BASE + k as u32;
            if tango_obs::is_enabled() {
                let label = format!("{}x{batch_len}", kinds[k].name());
                tango_obs::track_span_at(Domain::Engine, now, completed, device as u32, "serve.batch", &label);
            }
            // Below `SHED`: batches <= admitted requests <= u32::MAX.
            let batch = log_batches.len() as u32;
            log_batches.push(Batch {
                dispatched: now,
                completed,
                device: device as u32,
                size: batch_len as u32,
            });
            for _ in 0..batch_len {
                let item = queue.pop_front().expect("batch_len items queued");
                tango_obs::track_event_at(
                    Domain::Engine,
                    completed,
                    qtrack,
                    Phase::AsyncEnd,
                    "serve.request",
                    kinds[k].name(),
                    item.record_idx as i64,
                );
                batch_of[item.record_idx] = batch;
            }
            tango_obs::track_event_at(
                Domain::Engine,
                now,
                qtrack,
                Phase::Counter,
                "serve.queue",
                "depth",
                queue.len() as i64,
            );
            makespan = makespan.max(completed);
        }

        // 4. Advance the clock to the next event: an arrival, a device
        //    completion, or — when a device is idle — a queue-head aging
        //    past the delay bound.
        let mut next = u64::MAX;
        if let Some(&word) = arrivals.get(next_arrival) {
            next = next.min(unpack(word).0);
        }
        if let Some(done_at) = devices.next_completion() {
            next = next.min(done_at);
        }
        if devices.idle() > 0 {
            for q in &queues {
                if let Some(head) = q.front() {
                    next = next.min(head.arrival.saturating_add(max_delay));
                }
            }
        }
        if next == u64::MAX {
            break;
        }
        debug_assert!(next > now, "the event loop must make progress");
        now = next;
    }

    debug_assert!(
        queues.iter().all(VecDeque::is_empty),
        "all admitted requests must retire"
    );
    log_batches.shrink_to_fit();
    Ok(ServeReport {
        batches: log_batches.len() as u64,
        records: RequestLog {
            trace: trace.clone(),
            batch_of,
            batches: log_batches,
            queue_bound: config.queue_bound,
        },
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::policy::BatchPolicy;
    use crate::trace::Arrival;

    const GRU: NetworkKind = NetworkKind::Gru;

    fn config(devices: usize, queue_bound: usize, max_batch: u32, max_delay: u64) -> ServeConfig {
        ServeConfig {
            devices,
            queue_bound,
            policy: BatchPolicy {
                max_batch,
                max_delay_cycles: max_delay,
            },
        }
    }

    fn burst(n: usize, at: u64) -> ArrivalTrace {
        ArrivalTrace::from_arrivals(
            &[GRU],
            (0..n)
                .map(|_| Arrival {
                    at_cycle: at,
                    kind: GRU,
                })
                .collect(),
        )
    }

    #[test]
    fn single_request_accounting_is_exact() {
        let trace = burst(1, 10);
        let cost = TableCostModel::new().with_kind(GRU, 900, 100);
        let report = run_trace(&trace, &config(1, 4, 1, 0), &cost).unwrap();
        assert_eq!(report.completed(), 1);
        assert_eq!(report.batches, 1);
        let r = report.records.get(0).unwrap();
        assert_eq!(r.queue_wait(), Some(0));
        assert_eq!(r.latency(), Some(1000));
        assert_eq!(report.makespan, 1010);
    }

    #[test]
    fn full_batches_flush_without_waiting_for_the_deadline() {
        // 4 simultaneous requests, max_batch 4, huge delay bound: the
        // batch is full at arrival, so it must dispatch immediately.
        let trace = burst(4, 5);
        let cost = TableCostModel::new().with_kind(GRU, 1000, 0);
        let report = run_trace(&trace, &config(1, 8, 4, 1_000_000), &cost).unwrap();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.batches, 1);
        for r in report.records.iter() {
            assert_eq!(r.queue_wait(), Some(0));
            assert_eq!(r.latency(), Some(1000));
        }
    }

    #[test]
    fn partial_batches_flush_at_the_delay_bound() {
        // One request, max_batch 4: nothing fills the batch, so it waits
        // exactly max_delay_cycles before dispatch.
        let trace = burst(1, 100);
        let cost = TableCostModel::new().with_kind(GRU, 500, 0);
        let report = run_trace(&trace, &config(1, 8, 4, 250), &cost).unwrap();
        let r = report.records.get(0).unwrap();
        assert_eq!(r.queue_wait(), Some(250));
        assert_eq!(r.latency(), Some(750));
    }

    #[test]
    fn admission_control_sheds_past_the_bound() {
        // 10 simultaneous requests into a queue bounded at 4 with one
        // slow device: 4 admitted, 6 shed with the bound reported.
        let trace = burst(10, 0);
        let cost = TableCostModel::new().with_kind(GRU, 10_000, 0);
        let report = run_trace(&trace, &config(1, 4, 1, u64::MAX), &cost).unwrap();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.shed(), 6);
        for r in report.records.iter().skip(4) {
            assert_eq!(r.outcome, Outcome::Shed { queue_len: 4 });
        }
    }

    #[test]
    fn no_sheds_at_low_load() {
        let trace = ArrivalTrace::open_loop(&[GRU], 300, 10_000, 4, 11);
        let cost = TableCostModel::new().with_kind(GRU, 2000, 100);
        let report = run_trace(&trace, &config(2, 16, 4, 1000), &cost).unwrap();
        assert_eq!(report.shed(), 0, "2 devices at 5x headroom must not shed");
        assert_eq!(report.completed(), 300);
    }

    #[test]
    fn batching_cuts_tail_latency_at_high_load() {
        // Arrivals at ~4x one device's single-request service rate. With
        // max_batch 1 the queue melts down; with max_batch 8 the affine
        // cost amortizes the base term and p99 must drop.
        let trace = ArrivalTrace::open_loop(&[GRU], 400, 250, 4, 13);
        let cost = TableCostModel::new().with_kind(GRU, 900, 100);
        let p99_of = |max_batch: u32| {
            let report = run_trace(&trace, &config(1, 400, max_batch, 2000), &cost).unwrap();
            assert_eq!(report.shed(), 0, "queue bound covers the whole trace");
            report.latency_summary().unwrap().p99
        };
        let (unbatched, batched) = (p99_of(1), p99_of(8));
        assert!(
            batched < unbatched / 2,
            "p99 with batching ({batched}) must be far below without ({unbatched})"
        );
    }

    #[test]
    fn more_devices_raise_throughput() {
        let trace = ArrivalTrace::open_loop(&[GRU], 200, 500, 4, 17);
        let cost = TableCostModel::new().with_kind(GRU, 1800, 200);
        let one = run_trace(&trace, &config(1, 200, 1, 0), &cost).unwrap();
        let four = run_trace(&trace, &config(4, 200, 1, 0), &cost).unwrap();
        assert_eq!(one.completed(), 200);
        assert_eq!(four.completed(), 200);
        assert!(four.makespan < one.makespan, "4 devices must finish sooner");
        assert!(four.throughput_per_mcycle() > one.throughput_per_mcycle());
    }

    /// Digests of `{report:?}` recorded at the commit before the per-run
    /// cost table and the `Vec`-backed `DeviceSet`: every record, the
    /// makespan and the batch count of 2 traces × 3 configs, each beside
    /// its shed count.
    #[test]
    fn reports_match_the_recorded_digests() {
        const RECORDED: [(u64, usize); 6] = [
            (0xe49e_048b_8297_86ad, 0),
            (0xaf14_8fb0_b512_d14a, 850),
            (0xde51_3fbe_e855_d136, 0),
            (0x4d83_8af2_1b14_24e4, 64),
            (0x804b_6cca_ddb1_c85c, 2_789),
            (0x77d3_5310_43a3_91ff, 754),
        ];
        let fnv = |text: &str| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let kinds = [GRU, NetworkKind::CifarNet];
        let cost = TableCostModel::new()
            .with_kind(GRU, 8_000, 400)
            .with_kind(NetworkKind::CifarNet, 20_000, 1_000);
        // Offered load 0.7 of two devices' unbatched capacity, and an
        // overload not even full batches carry.
        let traces = [
            ArrivalTrace::open_loop(&kinds, 3_000, 10_500, 4, 0x5eed),
            ArrivalTrace::open_loop(&kinds, 3_000, 1_000, 4, 0x5eed ^ 2),
        ];
        // The benchmark's shape; one unbatched device behind a 4-deep
        // queue (sheds on both traces); four devices, partial batches.
        let configs = [config(2, 256, 8, 3_675), config(1, 4, 1, 0), config(4, 16, 3, 50_000)];
        let mut digests = Vec::new();
        for trace in &traces {
            for cfg in &configs {
                let report = run_trace(trace, cfg, &cost).unwrap();
                digests.push((fnv(&format!("{report:?}")), report.shed()));
            }
        }
        assert_eq!(digests, RECORDED, "actual (digest, shed): {digests:#x?}");
    }

    #[test]
    fn identical_runs_are_identical() {
        let trace = ArrivalTrace::open_loop(&[GRU, NetworkKind::CifarNet], 250, 600, 3, 19);
        let cost = TableCostModel::new()
            .with_kind(GRU, 900, 100)
            .with_kind(NetworkKind::CifarNet, 2500, 300);
        let cfg = config(3, 12, 4, 800);
        let a = run_trace(&trace, &cfg, &cost).unwrap();
        let b = run_trace(&trace, &cfg, &cost).unwrap();
        assert_eq!(a, b);
    }
}

/// The engine as it was before [`RequestLog`]: one [`RequestRecord`] per
/// request, written in place. Kept only as the reference the log must
/// read equal to.
#[cfg(test)]
mod reference {
    use super::{Outcome, Queued, RequestRecord};
    use crate::cost::CostModel;
    use crate::metrics::LatencySummary;
    use crate::policy::ServeConfig;
    use crate::pool::DeviceSet;
    use crate::tables::{CostTable, KindIndex};
    use crate::trace::{Arrival, ArrivalTrace};
    use std::collections::VecDeque;

    /// The report's previous layout; same name, so `Debug` prints alike.
    #[derive(Debug)]
    pub struct ServeReport {
        pub records: Vec<RequestRecord>,
        pub makespan: u64,
        pub batches: u64,
    }

    impl ServeReport {
        pub fn latency_summary(&self) -> Option<LatencySummary> {
            LatencySummary::from_latencies(self.records.iter().filter_map(|r| r.latency()).collect())
        }
    }

    pub fn run_trace(trace: &ArrivalTrace, config: &ServeConfig, cost: &dyn CostModel) -> ServeReport {
        config.validate().unwrap();
        let kinds = trace.kinds();
        let kind_index = KindIndex::new(kinds);
        let mut costs: CostTable<u64> = CostTable::new(kinds.len());
        let arrivals: Vec<Arrival> = trace.iter().collect();
        let mut records: Vec<RequestRecord> = arrivals
            .iter()
            .map(|a| RequestRecord {
                kind: a.kind,
                arrival: a.at_cycle,
                outcome: Outcome::Shed { queue_len: 0 },
            })
            .collect();
        let mut queues: Vec<VecDeque<Queued>> = kinds.iter().map(|_| VecDeque::new()).collect();
        let mut devices = DeviceSet::new(config.devices);
        let (mut next_arrival, mut now, mut batches, mut makespan) = (0usize, 0u64, 0u64, 0u64);
        let max_batch = config.policy.max_batch as usize;
        let max_delay = config.policy.max_delay_cycles;
        loop {
            devices.complete_until(now);
            while next_arrival < arrivals.len() && arrivals[next_arrival].at_cycle <= now {
                let arrival = &arrivals[next_arrival];
                let queue = &mut queues[kind_index.get(arrival.kind).unwrap()];
                records[next_arrival].outcome = if queue.len() >= config.queue_bound {
                    Outcome::Shed { queue_len: queue.len() }
                } else {
                    queue.push_back(Queued {
                        record_idx: next_arrival,
                        arrival: arrival.at_cycle,
                    });
                    Outcome::Shed { queue_len: usize::MAX }
                };
                next_arrival += 1;
            }
            while devices.peek_free().is_some() {
                let ready = queues
                    .iter()
                    .enumerate()
                    .filter_map(|(k, q)| {
                        let head = q.front()?;
                        let aged = now >= head.arrival.saturating_add(max_delay);
                        (q.len() >= max_batch || aged).then_some((head.arrival, k))
                    })
                    .min();
                let Some((_, k)) = ready else { break };
                let queue = &mut queues[k];
                let batch_len = queue.len().min(max_batch);
                let exec = costs
                    .get(k, batch_len as u32, || cost.batch_cycles(kinds[k], batch_len as u32))
                    .unwrap();
                let completed = now + exec.max(1);
                let device = devices.dispatch(now, completed).unwrap();
                for item in queue.drain(..batch_len) {
                    records[item.record_idx].outcome = Outcome::Completed {
                        dispatched: now,
                        completed,
                        batch: batch_len as u32,
                        device,
                    };
                }
                makespan = makespan.max(completed);
                batches += 1;
            }
            let mut next = u64::MAX;
            if next_arrival < arrivals.len() {
                next = next.min(arrivals[next_arrival].at_cycle);
            }
            if let Some(done_at) = devices.next_completion() {
                next = next.min(done_at);
            }
            if devices.idle() > 0 {
                for q in &queues {
                    if let Some(head) = q.front() {
                        next = next.min(head.arrival.saturating_add(max_delay));
                    }
                }
            }
            if next == u64::MAX {
                break;
            }
            now = next;
        }
        ServeReport {
            records,
            makespan,
            batches,
        }
    }
}

/// Seeded `(trace, config)` cases replayed through [`run_trace`] and the
/// [`reference`] engine; a failure names its seed.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::cost::TableCostModel;
    use crate::metrics::{records_metrics, serve_metrics};
    use crate::policy::BatchPolicy;
    use std::sync::Arc;
    use tango_tensor::SplitMix64;

    const KINDS: [NetworkKind; 3] = [NetworkKind::Gru, NetworkKind::CifarNet, NetworkKind::Lstm];

    struct Case {
        trace: ArrivalTrace,
        config: ServeConfig,
        cost: TableCostModel,
        volleys: bool,
    }

    /// Every 25th case is an empty trace and every 3rd asks for one
    /// kind. Odd seeds arrive in same-cycle volleys; even ones are
    /// Poisson. Queue bounds of 1–12 against offered loads from light
    /// to several times the pool's capacity make most cases shed.
    fn case(seed: u64) -> Case {
        let mut rng = SplitMix64::new(seed ^ 0x5e7e);
        let (single, empty) = (seed.is_multiple_of(3), seed.is_multiple_of(25));
        let kinds = &KINDS[..if single { 1 } else { 2 + rng.below(2) as usize }];
        let n = if empty { 0 } else { 1 + rng.below(300) as usize };
        let gap = 200 + rng.below(12_000);
        let volleys = seed % 2 == 1;
        let trace = if volleys {
            let per_volley = 2 + rng.below(6);
            let arrivals = (0..n as u64)
                .map(|i| Arrival {
                    at_cycle: i / per_volley * gap * per_volley,
                    kind: kinds[rng.below(kinds.len() as u64) as usize],
                })
                .collect();
            ArrivalTrace::from_arrivals(kinds, arrivals)
        } else {
            ArrivalTrace::open_loop(kinds, n, gap, 4, seed)
        };
        let config = ServeConfig {
            devices: 1 + rng.below(4) as usize,
            queue_bound: 1 + rng.below(12) as usize,
            policy: BatchPolicy {
                max_batch: 1 + rng.below(8) as u32,
                max_delay_cycles: if rng.below(4) == 0 { 0 } else { rng.below(20_000) },
            },
        };
        let cost = kinds.iter().fold(TableCostModel::new(), |cost, &kind| {
            cost.with_kind(kind, 1_000 + rng.below(20_000), rng.below(2_000))
        });
        Case {
            trace,
            config,
            cost,
            volleys,
        }
    }

    #[test]
    fn the_log_reads_equal_to_the_reference_records() {
        let (mut empty, mut single, mut volleys, mut shedding) = (0, 0, 0, 0);
        for seed in 0..400u64 {
            let Case {
                trace,
                config,
                cost,
                volleys: volley,
            } = case(seed);
            let got = run_trace(&trace, &config, &cost).unwrap();
            let want = reference::run_trace(&trace, &config, &cost);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed}: {config:?}");
            assert_eq!(
                (got.makespan, got.batches),
                (want.makespan, want.batches),
                "seed {seed}"
            );
            assert_eq!(got.latency_summary(), want.latency_summary(), "seed {seed}");
            let want_shed = want.records.iter().filter(|r| r.latency().is_none()).count();
            assert_eq!(
                (got.shed(), got.completed()),
                (want_shed, trace.len() - want_shed),
                "seed {seed}"
            );
            for window in [1, 50_000, u64::MAX] {
                let got = serve_metrics(&got, window);
                let want = records_metrics(want.records.iter().copied(), window);
                let at = format!("seed {seed}, window {window}");
                assert_eq!(got.render_text("d"), want.render_text("d"), "{at}");
                assert_eq!(got.snapshot_jsonl("d"), want.snapshot_jsonl("d"), "{at}");
                assert_eq!(got.prometheus_text(), want.prometheus_text(), "{at}");
            }
            empty += usize::from(trace.is_empty());
            single += usize::from(trace.kinds().len() == 1);
            volleys += usize::from(volley);
            shedding += usize::from(got.shed() > 0);
        }
        assert!(
            empty >= 10 && single >= 100 && volleys == 200,
            "{empty} empty, {single} single-kind, {volleys} volleys"
        );
        assert!(shedding >= 150, "only {shedding} of 400 cases shed");
    }

    #[test]
    fn a_report_owns_four_bytes_a_request_and_24_a_batch() {
        for seed in 0..100u64 {
            let Case {
                trace, config, cost, ..
            } = case(seed);
            let report = run_trace(&trace, &config, &cost).unwrap();
            let bound = 4 * trace.len() + 24 * report.batches as usize;
            assert!(
                report.heap_bytes() <= bound,
                "seed {seed}: {} > {bound}",
                report.heap_bytes()
            );
            assert!(Arc::ptr_eq(report.records.trace.words(), trace.words()), "seed {seed}");
        }
    }
}
