//! The fleet engine: one virtual-nanosecond event loop over many
//! heterogeneous pools.
//!
//! This is the serve engine's discrete-event core lifted one level up:
//! instead of one pool of identical devices on one cycle clock, the
//! fleet holds several [`DeviceSet`]s with *different* clocks, so the
//! timeline is wall-normalized nanoseconds ([`BatchCost::ns`]). Event
//! ordering at a single instant is fixed by construction — completions
//! (pool order), autoscaler evaluation, arrivals (trace order), then
//! dispatches (pool order) — and every tie inside a step breaks on the
//! lowest index, so a replay is byte-identical across runs, hosts, and
//! worker counts (cost-model *precomputation* is the only parallel
//! stage, exactly as in serve).

use crate::autoscale::{Autoscaler, ScaleAction, ScaleView};
use crate::config::FleetConfig;
use crate::cost::FleetCost;
use crate::metrics::{emit_alert_instants, FleetMetrics, FleetMetricsConfig, FleetMetricsReport};
use crate::router::{Placement, PoolView, Router, ShedReason};
use crate::trace::{unpack, FleetTrace};
use std::collections::VecDeque;
use std::mem::size_of;
use tango_obs::{Domain, Phase};
use tango_serve::{BatchCost, CostTable, DeviceSet, LatencySummary, Result, ServeError};

/// What became of a run's requests, one column per priority class.
///
/// An admitted request takes the next slot of its class's latency
/// column and its batch's completion writes its latency there, so a
/// column lists its class's completions in trace order; a shed only
/// counts, by class and reason. That is 8 bytes per request at most.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassOutcomes {
    /// Per class: end-to-end latency (ns) of each completed request.
    latencies: Vec<Vec<u64>>,
    /// Per class: requests shed at admission, indexed like
    /// [`ShedReason::ALL`].
    sheds: Vec<[usize; ShedReason::ALL.len()]>,
    /// Requests in the trace.
    requests: usize,
}

impl ClassOutcomes {
    /// Requests in the trace, completed or shed.
    pub fn len(&self) -> usize {
        self.requests
    }

    /// Whether the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.requests == 0
    }

    /// Latencies (ns) of `class`'s completed requests, in trace order;
    /// empty for a class the fleet does not define.
    pub fn latencies(&self, class: usize) -> &[u64] {
        self.latencies.get(class).map_or(&[], Vec::as_slice)
    }

    /// Requests of `class` shed for `reason`.
    pub fn shed(&self, class: usize, reason: ShedReason) -> usize {
        self.sheds.get(class).map_or(0, |by| by[reason as usize])
    }
}

/// Per-pool accounting over a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// Pool name (from the spec).
    pub name: String,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests completed on this pool.
    pub completed: u64,
    /// Device-nanoseconds spent executing batches.
    pub busy_ns: u128,
    /// Device-nanoseconds of existence (integral of active devices over
    /// time) — the utilization denominator.
    pub device_ns: u128,
    /// Joules consumed by dispatched batches.
    pub energy_j: f64,
    /// Devices at trace end (post-drain target).
    pub final_devices: usize,
    /// Largest target the autoscaler ever set.
    pub peak_devices: usize,
    /// Autoscaler grow events applied.
    pub grows: u64,
    /// Autoscaler shrink events applied.
    pub shrinks: u64,
}

impl PoolStats {
    /// Fraction of device-time spent executing (0 when the pool never
    /// existed).
    pub fn utilization(&self) -> f64 {
        if self.device_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / self.device_ns as f64
    }
}

/// The result of replaying a fleet trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-class accounting; `records.len()` is the request count.
    pub records: ClassOutcomes,
    /// Per-pool accounting, in pool order.
    pub pools: Vec<PoolStats>,
    /// Nanosecond the last batch completed (0 for an empty trace).
    pub makespan_ns: u64,
}

impl FleetReport {
    /// Requests that completed.
    pub fn completed(&self) -> usize {
        self.records.latencies.iter().map(Vec::len).sum()
    }

    /// Requests shed at admission.
    pub fn shed(&self) -> usize {
        self.records.sheds.iter().flatten().sum()
    }

    /// Requests shed for `reason`.
    pub fn shed_by(&self, reason: ShedReason) -> usize {
        self.records.sheds.iter().map(|by| by[reason as usize]).sum()
    }

    /// Shed fraction of all requests (0 for an empty trace).
    pub fn shed_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.shed() as f64 / self.records.len() as f64
    }

    /// Latency summary over completed requests of `class` (`None` if
    /// none completed).
    pub fn class_latency(&self, class: usize) -> Option<LatencySummary> {
        LatencySummary::from_latencies(self.records.latencies(class).to_vec())
    }

    /// Total joules across pools.
    pub fn total_energy_j(&self) -> f64 {
        self.pools.iter().map(|p| p.energy_j).sum()
    }

    /// Joules per completed request (0 if none completed).
    pub fn energy_per_request_j(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            return 0.0;
        }
        self.total_energy_j() / done as f64
    }

    /// Heap bytes the report owns: its latency columns, its shed counts
    /// and its pool accounting.
    pub fn heap_bytes(&self) -> usize {
        let ClassOutcomes { latencies, sheds, .. } = &self.records;
        let columns: usize = latencies.iter().map(|c| c.capacity() * size_of::<u64>()).sum();
        let names: usize = self.pools.iter().map(|p| p.name.capacity()).sum();
        columns
            + latencies.capacity() * size_of::<Vec<u64>>()
            + sheds.capacity() * size_of::<[usize; ShedReason::ALL.len()]>()
            + self.pools.capacity() * size_of::<PoolStats>()
            + names
    }
}

struct Queued {
    /// The request's slot in its class's latency column.
    slot: usize,
    at_ns: u64,
}

/// The run's batching constants, as the queues need them.
#[derive(Clone, Copy)]
struct Batching {
    max_batch: usize,
    max_delay_ns: u64,
    /// Network kinds of the trace: a pool's queues are indexed
    /// `class * kinds + kind`.
    kinds: usize,
}

impl Batching {
    /// The instant `queue` may dispatch: at once (0) while it holds a
    /// full batch, else when its head has waited `max_delay_ns`; `None`
    /// for an empty queue.
    fn due_at(&self, queue: &VecDeque<Queued>) -> Option<u64> {
        let head = queue.front()?;
        Some(match queue.len() >= self.max_batch {
            true => 0,
            false => head.at_ns.saturating_add(self.max_delay_ns),
        })
    }
}

/// One pool's live scheduling state.
struct PoolState {
    devices: DeviceSet,
    /// Queues indexed `class * kinds + kind`.
    queues: Vec<VecDeque<Queued>>,
    pending: usize,
    /// Queues holding a request: a walk over them stops at this many.
    nonempty: usize,
    /// The pool's ready index: the least [`Batching::due_at`] of its
    /// queues, `u64::MAX` with nothing queued. Only [`enqueue`] and a
    /// dispatch change a queue; the first lowers the index, the second
    /// ends in [`refresh_ready`], so it is current whenever it is read.
    ///
    /// [`enqueue`]: PoolState::enqueue
    /// [`refresh_ready`]: PoolState::refresh_ready
    ready_at: u64,
    /// Instant up to which `stats.device_ns` is settled.
    settled_ns: u64,
    min_devices: usize,
    max_devices: usize,
    stats: PoolStats,
}

impl PoolState {
    fn enqueue(&mut self, queue: usize, item: Queued, batching: &Batching) {
        let queue = &mut self.queues[queue];
        if queue.is_empty() {
            self.nonempty += 1;
        }
        queue.push_back(item);
        self.pending += 1;
        let due_at = batching.due_at(queue).expect("just pushed");
        self.ready_at = self.ready_at.min(due_at);
    }

    /// The queue to dispatch at `now`, as `(class, kind)`: of the queues
    /// due, the highest priority (lowest class), then the oldest head,
    /// then kind order.
    fn pick(&self, now: u64, batching: &Batching) -> Option<(usize, usize)> {
        self.queues
            .chunks(batching.kinds)
            .enumerate()
            .find_map(|(class, by_kind)| {
                let due = by_kind
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| batching.due_at(q).is_some_and(|due_at| due_at <= now));
                let (_, kind) = due.map(|(kind, q)| (q.front().expect("due").at_ns, kind)).min()?;
                Some((class, kind))
            })
    }

    fn refresh_ready(&mut self, batching: &Batching) {
        let due_at = self.queues.iter().filter_map(|q| batching.due_at(q));
        self.ready_at = due_at.take(self.nonempty).min().unwrap_or(u64::MAX);
    }

    /// Adds to `device_ns` the `held` devices that existed from the last
    /// settlement to `now`. Called when that count changes and at the
    /// end of the run, so the sum is the integral the report defines.
    fn settle(&mut self, now: u64, held: usize) {
        self.stats.device_ns += held as u128 * u128::from(now - self.settled_ns);
        self.settled_ns = now;
    }
}

/// Obs track layout: each pool owns a 1000-track band in the fleet
/// domain; devices sit at the base, queue/pool counters high in it.
fn pool_track_base(pool: usize) -> u32 {
    (pool as u32 + 1) * 1000
}
const PENDING_TRACK: u32 = 990;
const DEVICES_TRACK: u32 = 991;
/// Fleet-wide admission events (sheds) live on track 999 of band 0.
const SHED_TRACK: u32 = 999;

/// Replays `trace` across `config.pools`, costing pool `i`'s batches
/// with `costs[i]`. Serial and fully deterministic.
///
/// # Errors
///
/// Returns [`ServeError::Config`] for an invalid `config` or a
/// `costs`/pools length mismatch, and propagates cost-model
/// (simulation) failures.
pub fn run_fleet(trace: &FleetTrace, config: &FleetConfig, costs: &[&dyn FleetCost]) -> Result<FleetReport> {
    config.validate()?;
    run_fleet_inner(trace, config, costs, None)
}

/// [`run_fleet`] with metrics collection: the same replay (the
/// returned [`FleetReport`] is byte-identical to the unmetered one),
/// plus a windowed [`FleetMetricsReport`] with per-class SLO burn-rate
/// evaluation shaped by `mcfg`. Burn alerts are also emitted as typed
/// obs instants on [`crate::metrics::SLO_TRACK`] when the recorder is
/// enabled.
///
/// # Errors
///
/// Exactly as [`run_fleet`].
pub fn run_fleet_metered(
    trace: &FleetTrace,
    config: &FleetConfig,
    costs: &[&dyn FleetCost],
    mcfg: &FleetMetricsConfig,
) -> Result<(FleetReport, FleetMetricsReport)> {
    config.validate()?;
    let mut metrics = FleetMetrics::new(config, mcfg);
    let report = run_fleet_inner(trace, config, costs, Some(&mut metrics))?;
    let metrics = metrics.finish();
    emit_alert_instants(&metrics);
    Ok((report, metrics))
}

/// The event loop behind both entry points; `config` is validated.
///
/// Every step reads state the events that concern it keep current — a
/// pool's ready index, its device set's next completion, two fleet-wide
/// counts of outstanding work — so an iteration costs a few comparisons
/// per pool plus the work of the events actually due at `now`.
fn run_fleet_inner(
    trace: &FleetTrace,
    config: &FleetConfig,
    costs: &[&dyn FleetCost],
    mut metrics: Option<&mut FleetMetrics>,
) -> Result<FleetReport> {
    if costs.len() != config.pools.len() {
        return Err(ServeError::Config(format!(
            "{} cost models for {} pools",
            costs.len(),
            config.pools.len()
        )));
    }
    if trace.classes() > config.classes.len() {
        return Err(ServeError::Config(format!(
            "trace drawn over {} classes but the fleet defines {}",
            trace.classes(),
            config.classes.len()
        )));
    }
    let kinds = trace.kinds();
    let nk = kinds.len();
    let batching = Batching {
        max_batch: config.max_batch as usize,
        max_delay_ns: config.max_delay_ns,
        kinds: nk,
    };

    let requests = trace.words();
    // Each class's column is sized to its share of the trace, so the
    // columns together hold one slot per request and never regrow.
    let classes = config.classes.len();
    let mut per_class = vec![0usize; classes];
    for &word in requests {
        per_class[unpack(word).1] += 1;
    }
    let mut outcomes = ClassOutcomes {
        latencies: per_class.into_iter().map(Vec::with_capacity).collect(),
        sheds: vec![[0; ShedReason::ALL.len()]; classes],
        requests: requests.len(),
    };

    let mut pools: Vec<PoolState> = config
        .pools
        .iter()
        .map(|spec| PoolState {
            devices: DeviceSet::new(spec.devices),
            queues: (0..classes * nk).map(|_| VecDeque::new()).collect(),
            pending: 0,
            nonempty: 0,
            ready_at: u64::MAX,
            settled_ns: 0,
            min_devices: spec.min_devices,
            max_devices: spec.max_devices,
            stats: PoolStats {
                name: spec.name.clone(),
                batches: 0,
                completed: 0,
                busy_ns: 0,
                device_ns: 0,
                energy_j: 0.0,
                final_devices: spec.devices,
                peak_devices: spec.devices,
                grows: 0,
                shrinks: 0,
            },
        })
        .collect();

    // Batch costs are pure in (pool, kind, batch): one row per (pool,
    // kind), so the store-backed models are consulted once per distinct
    // query.
    let mut cost_table: CostTable<BatchCost> = CostTable::new(pools.len() * nk);
    // The router's snapshot of the fleet, refilled per arrival.
    let mut views: Vec<PoolView> = Vec::with_capacity(pools.len());

    let mut router = Router::new(config.policy);
    let mut autoscaler = config.autoscale.map(Autoscaler::new);
    let mut sheds_since_eval = 0u64;
    let mut next_arrival = 0usize;
    // Outstanding work past the trace cursor: requests in a queue and
    // batches on a device, fleet-wide.
    let (mut queued, mut in_flight) = (0usize, 0usize);
    let mut now = 0u64;
    let mut makespan = 0u64;

    loop {
        // 1. Retire every batch that finished by `now`, pool order.
        for p in pools.iter_mut() {
            if p.devices.next_completion().is_some_and(|done_at| done_at <= now) {
                let busy = p.devices.busy();
                let retired = p.devices.complete_until(now);
                in_flight -= busy - p.devices.busy();
                if retired > 0 {
                    p.settle(now, p.devices.active() + retired);
                }
            }
        }

        // 2. Autoscale at evaluation instants. A pool's action depends
        //    on its own view only, so each is decided and applied in turn.
        if let Some(scaler) = autoscaler.as_mut() {
            if scaler.due(now) {
                scaler.advance(now);
                let sheds = std::mem::take(&mut sheds_since_eval);
                for (i, p) in pools.iter_mut().enumerate() {
                    let view = ScaleView {
                        pending: p.pending,
                        idle: p.devices.idle(),
                        target: p.devices.target(),
                        min_devices: p.min_devices,
                        max_devices: p.max_devices,
                    };
                    let held = p.devices.active();
                    match scaler.decide(&view, sheds) {
                        ScaleAction::Hold => continue,
                        ScaleAction::Grow(n) => {
                            p.devices.grow(n);
                            p.stats.grows += 1;
                        }
                        ScaleAction::Shrink(n) => {
                            if p.devices.shrink(n) > 0 {
                                p.stats.shrinks += 1;
                            }
                        }
                    }
                    if p.devices.active() != held {
                        p.settle(now, held);
                    }
                    let target = p.devices.target();
                    p.stats.peak_devices = p.stats.peak_devices.max(target);
                    tango_obs::track_event_at(
                        Domain::Fleet,
                        now,
                        pool_track_base(i) + DEVICES_TRACK,
                        Phase::Counter,
                        "fleet.pool",
                        "devices",
                        target as i64,
                    );
                    if let Some(m) = metrics.as_deref_mut() {
                        m.on_scale(now, i, target);
                    }
                }
            }
        }

        // 3. Admit (or shed) every arrival due by `now`, trace order.
        while let Some(&word) = requests.get(next_arrival) {
            let (at_ns, class, k) = unpack(word);
            if at_ns > now {
                break;
            }
            // Snapshot the fleet for the router.
            views.clear();
            for (i, p) in pools.iter().enumerate() {
                let svc = cost_table.get(i * nk + k, 1, || costs[i].batch_cost(kinds[k], 1))?.ns;
                let next_free = if p.devices.idle() > 0 {
                    0
                } else {
                    p.devices.next_completion().map_or(0, |d| d.saturating_sub(now))
                };
                views.push(PoolView {
                    pending: p.pending,
                    idle: p.devices.idle(),
                    target: p.devices.target(),
                    next_free_delay_ns: next_free,
                    service_ns: svc,
                });
            }
            let slo = config.classes[class].slo_ns;
            if let Some(m) = metrics.as_deref_mut() {
                m.on_arrival(at_ns, class);
            }
            match router.place(&views, config.queue_bound, slo) {
                Placement::Pool(i) => {
                    let p = &mut pools[i];
                    // The slot's latency is written when its batch
                    // retires; admitted requests always complete (the
                    // loop drains queues).
                    let column = &mut outcomes.latencies[class];
                    let item = Queued {
                        slot: column.len(),
                        at_ns,
                    };
                    column.push(0);
                    p.enqueue(class * nk + k, item, &batching);
                    queued += 1;
                    tango_obs::track_event_at(
                        Domain::Fleet,
                        now,
                        pool_track_base(i) + PENDING_TRACK,
                        Phase::Counter,
                        "fleet.queue",
                        "pending",
                        p.pending as i64,
                    );
                    if let Some(m) = metrics.as_deref_mut() {
                        m.on_pending(now, i, p.pending);
                    }
                }
                Placement::Shed(reason) => {
                    sheds_since_eval += 1;
                    outcomes.sheds[class][reason as usize] += 1;
                    tango_obs::track_event_at(
                        Domain::Fleet,
                        now,
                        SHED_TRACK,
                        Phase::Instant,
                        "fleet.shed",
                        reason.name(),
                        0,
                    );
                    if let Some(m) = metrics.as_deref_mut() {
                        m.on_shed(now, class, reason);
                    }
                }
            }
            next_arrival += 1;
        }

        // 4. Dispatch due queues onto free devices, pool order. A queue
        //    is due when it holds a full batch or its head aged past the
        //    delay bound; ties prefer higher priority (lower class),
        //    then the oldest head, then kind order. The ready index
        //    says whether a pool has one without walking its queues.
        for (i, p) in pools.iter_mut().enumerate() {
            while p.ready_at <= now && p.devices.peek_free().is_some() {
                let (class, k) = p.pick(now, &batching).expect("the ready index names a due queue");
                let qi = class * nk + k;
                let batch_len = p.queues[qi].len().min(batching.max_batch);
                let cost = cost_table.get(i * nk + k, batch_len as u32, || {
                    costs[i].batch_cost(kinds[k], batch_len as u32)
                })?;
                let completed_ns = now + cost.ns.max(1);
                let device = p.devices.dispatch(now, completed_ns).expect("peeked free device");
                if tango_obs::is_enabled() {
                    let label = format!("{}x{batch_len}", kinds[k].name());
                    tango_obs::track_span_at(
                        Domain::Fleet,
                        now,
                        completed_ns,
                        pool_track_base(i) + device as u32,
                        "fleet.batch",
                        &label,
                    );
                }
                let column = &mut outcomes.latencies[class];
                for _ in 0..batch_len {
                    let item = p.queues[qi].pop_front().expect("batch_len items queued");
                    let latency = completed_ns - item.at_ns;
                    column[item.slot] = latency;
                    if let Some(m) = metrics.as_deref_mut() {
                        let slo_met = config.classes[class].slo_ns.map(|slo| latency <= slo);
                        m.on_complete(completed_ns, class, latency, slo_met);
                    }
                }
                if p.queues[qi].is_empty() {
                    p.nonempty -= 1;
                }
                p.refresh_ready(&batching);
                p.pending -= batch_len;
                queued -= batch_len;
                in_flight += 1;
                tango_obs::track_event_at(
                    Domain::Fleet,
                    now,
                    pool_track_base(i) + PENDING_TRACK,
                    Phase::Counter,
                    "fleet.queue",
                    "pending",
                    p.pending as i64,
                );
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_pending(now, i, p.pending);
                    m.on_dispatch(now, i, completed_ns - now, cost.energy_j);
                }
                p.stats.batches += 1;
                p.stats.completed += batch_len as u64;
                p.stats.busy_ns += u128::from(completed_ns - now);
                p.stats.energy_j += cost.energy_j;
                makespan = makespan.max(completed_ns);
            }
        }

        // 5. Advance the clock to the next event: an arrival, a
        //    completion, a queue coming due (when a device is idle to
        //    take it — step 4 left no such queue due at `now`), or an
        //    autoscaler evaluation (only while work remains —
        //    evaluations alone must not keep a finished simulation
        //    alive).
        let mut next = u64::MAX;
        if let Some(&word) = requests.get(next_arrival) {
            next = next.min(unpack(word).0);
        }
        for p in &pools {
            if let Some(done_at) = p.devices.next_completion() {
                next = next.min(done_at);
            }
            if p.devices.idle() > 0 {
                next = next.min(p.ready_at);
            }
        }
        if let Some(scaler) = &autoscaler {
            if next_arrival < requests.len() || queued > 0 || in_flight > 0 {
                next = next.min(scaler.next_eval_ns());
            }
        }
        if next == u64::MAX {
            break;
        }
        debug_assert!(next > now, "the event loop must make progress");
        now = next;
    }

    debug_assert!(
        queued == 0 && pools.iter().all(|p| p.pending == 0 && p.nonempty == 0),
        "all admitted requests must retire"
    );
    let pools = pools
        .into_iter()
        .map(|mut p| {
            // Utilization denominator: device-time existing up to the
            // last event.
            p.settle(now, p.devices.active());
            p.stats.final_devices = p.devices.target();
            p.stats
        })
        .collect();
    Ok(FleetReport {
        records: outcomes,
        pools,
        makespan_ns: makespan,
    })
}

/// The event loop as it stood before it was indexed by its events:
/// every iteration retires on every pool, walks every queue twice and
/// multiplies a `u128` per pool, and every request gets a record, which
/// [`project`] folds into a report's columns. It is the oracle
/// [`differential`] compares the loop above with, report for report.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::trace::FleetRequest;
    use std::collections::BTreeMap;
    use tango_nets::NetworkKind;

    /// What happened to one request, as far as a report keeps it.
    enum FleetOutcome {
        /// Admitted, routed, batched, executed.
        Completed {
            /// Nanosecond its batch completed.
            completed_ns: u64,
        },
        /// Rejected at admission.
        Shed {
            /// Why.
            reason: ShedReason,
        },
    }

    /// Accounting for one request.
    struct FleetRecord {
        /// Priority class index.
        class: usize,
        /// Arrival nanosecond (from the trace).
        arrival_ns: u64,
        /// Outcome.
        outcome: FleetOutcome,
    }

    struct Queued {
        record_idx: usize,
        at_ns: u64,
    }

    /// The per-request records, in trace order, as the report keeps
    /// them: per class, the latencies of its completed requests in trace
    /// order, and its sheds by reason.
    fn project(records: &[FleetRecord], classes: usize) -> ClassOutcomes {
        let mut outcomes = ClassOutcomes {
            latencies: vec![Vec::new(); classes],
            sheds: vec![[0; ShedReason::ALL.len()]; classes],
            requests: records.len(),
        };
        for r in records {
            match r.outcome {
                FleetOutcome::Completed { completed_ns } => {
                    outcomes.latencies[r.class].push(completed_ns - r.arrival_ns)
                }
                FleetOutcome::Shed { reason } => outcomes.sheds[r.class][reason as usize] += 1,
            }
        }
        outcomes
    }

    /// One pool's live scheduling state.
    struct PoolState {
        devices: DeviceSet,
        /// Queues indexed `class * kinds + kind`.
        queues: Vec<VecDeque<Queued>>,
        pending: usize,
        min_devices: usize,
        max_devices: usize,
        stats: PoolStats,
    }

    pub(super) fn run_fleet_inner(
        trace: &FleetTrace,
        config: &FleetConfig,
        costs: &[&dyn FleetCost],
        mut metrics: Option<&mut FleetMetrics>,
    ) -> Result<FleetReport> {
        config.validate()?;
        if costs.len() != config.pools.len() {
            return Err(ServeError::Config(format!(
                "{} cost models for {} pools",
                costs.len(),
                config.pools.len()
            )));
        }
        if trace.classes() > config.classes.len() {
            return Err(ServeError::Config(format!(
                "trace drawn over {} classes but the fleet defines {}",
                trace.classes(),
                config.classes.len()
            )));
        }
        let kinds = trace.kinds();
        let nk = kinds.len();
        let kind_index = |kind: NetworkKind| -> usize {
            kinds
                .iter()
                .position(|&k| k == kind)
                .expect("trace request kind not in trace.kinds()")
        };

        let requests: Vec<FleetRequest> = trace.iter().collect();
        let mut records: Vec<FleetRecord> = requests
            .iter()
            .map(|r| FleetRecord {
                class: r.class as usize,
                arrival_ns: r.at_ns,
                outcome: FleetOutcome::Shed {
                    reason: ShedReason::NoCapacity, // placeholder, always overwritten
                },
            })
            .collect();

        let mut pools: Vec<PoolState> = config
            .pools
            .iter()
            .map(|spec| PoolState {
                devices: DeviceSet::new(spec.devices),
                queues: (0..config.classes.len() * nk).map(|_| VecDeque::new()).collect(),
                pending: 0,
                min_devices: spec.min_devices,
                max_devices: spec.max_devices,
                stats: PoolStats {
                    name: spec.name.clone(),
                    batches: 0,
                    completed: 0,
                    busy_ns: 0,
                    device_ns: 0,
                    energy_j: 0.0,
                    final_devices: spec.devices,
                    peak_devices: spec.devices,
                    grows: 0,
                    shrinks: 0,
                },
            })
            .collect();

        // Batch costs are pure in (pool, kind, batch); memoize so the
        // store-backed models are consulted once per distinct query.
        let mut cost_cache: Vec<BTreeMap<(usize, u32), BatchCost>> = vec![BTreeMap::new(); pools.len()];
        let mut cost_of = move |pool: usize, kind_idx: usize, kind: NetworkKind, batch: u32| -> Result<BatchCost> {
            if let Some(&c) = cost_cache[pool].get(&(kind_idx, batch)) {
                return Ok(c);
            }
            let c = costs[pool].batch_cost(kind, batch)?;
            cost_cache[pool].insert((kind_idx, batch), c);
            Ok(c)
        };

        let mut router = Router::new(config.policy);
        let mut autoscaler = config.autoscale.map(Autoscaler::new);
        let mut sheds_since_eval = 0u64;
        let mut next_arrival = 0usize;
        let mut now = 0u64;
        let mut makespan = 0u64;
        let max_batch = config.max_batch as usize;

        loop {
            // 1. Retire every batch that finished by `now`, pool order.
            for p in pools.iter_mut() {
                p.devices.complete_until(now);
            }

            // 2. Autoscale at evaluation instants.
            if let Some(scaler) = autoscaler.as_mut() {
                if scaler.due(now) {
                    let views: Vec<ScaleView> = pools
                        .iter()
                        .map(|p| ScaleView {
                            pending: p.pending,
                            idle: p.devices.idle(),
                            target: p.devices.target(),
                            min_devices: p.min_devices,
                            max_devices: p.max_devices,
                        })
                        .collect();
                    let actions = scaler.evaluate(now, &views, sheds_since_eval);
                    sheds_since_eval = 0;
                    for (i, action) in actions.into_iter().enumerate() {
                        let p = &mut pools[i];
                        match action {
                            ScaleAction::Hold => continue,
                            ScaleAction::Grow(n) => {
                                p.devices.grow(n);
                                p.stats.grows += 1;
                            }
                            ScaleAction::Shrink(n) => {
                                if p.devices.shrink(n) > 0 {
                                    p.stats.shrinks += 1;
                                }
                            }
                        }
                        let target = p.devices.target();
                        p.stats.peak_devices = p.stats.peak_devices.max(target);
                        tango_obs::track_event_at(
                            Domain::Fleet,
                            now,
                            pool_track_base(i) + DEVICES_TRACK,
                            Phase::Counter,
                            "fleet.pool",
                            "devices",
                            target as i64,
                        );
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_scale(now, i, target);
                        }
                    }
                }
            }

            // 3. Admit (or shed) every arrival due by `now`, trace order.
            while next_arrival < requests.len() && requests[next_arrival].at_ns <= now {
                let req = &requests[next_arrival];
                let (k, class) = (kind_index(req.kind), req.class as usize);
                // Snapshot the fleet for the router.
                let mut views = Vec::with_capacity(pools.len());
                for (i, p) in pools.iter().enumerate() {
                    let svc = cost_of(i, k, req.kind, 1)?.ns;
                    let next_free = if p.devices.idle() > 0 {
                        0
                    } else {
                        p.devices.next_completion().map_or(0, |d| d.saturating_sub(now))
                    };
                    views.push(PoolView {
                        pending: p.pending,
                        idle: p.devices.idle(),
                        target: p.devices.target(),
                        next_free_delay_ns: next_free,
                        service_ns: svc,
                    });
                }
                let slo = config.classes[class].slo_ns;
                if let Some(m) = metrics.as_deref_mut() {
                    m.on_arrival(req.at_ns, class);
                }
                records[next_arrival].outcome = match router.place(&views, config.queue_bound, slo) {
                    Placement::Pool(i) => {
                        let p = &mut pools[i];
                        p.queues[class * nk + k].push_back(Queued {
                            record_idx: next_arrival,
                            at_ns: req.at_ns,
                        });
                        p.pending += 1;
                        tango_obs::track_event_at(
                            Domain::Fleet,
                            now,
                            pool_track_base(i) + PENDING_TRACK,
                            Phase::Counter,
                            "fleet.queue",
                            "pending",
                            p.pending as i64,
                        );
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_pending(now, i, p.pending);
                        }
                        // Overwritten when its batch retires; admitted
                        // requests always complete (the loop drains queues).
                        FleetOutcome::Shed {
                            reason: ShedReason::NoCapacity,
                        }
                    }
                    Placement::Shed(reason) => {
                        sheds_since_eval += 1;
                        tango_obs::track_event_at(
                            Domain::Fleet,
                            now,
                            SHED_TRACK,
                            Phase::Instant,
                            "fleet.shed",
                            reason.name(),
                            0,
                        );
                        if let Some(m) = metrics.as_deref_mut() {
                            m.on_shed(now, class, reason);
                        }
                        FleetOutcome::Shed { reason }
                    }
                };
                next_arrival += 1;
            }

            // 4. Dispatch ready queues onto free devices, pool order. A
            //    queue is ready when it holds a full batch or its head aged
            //    past the delay bound; ties prefer higher priority (lower
            //    class), then the oldest head, then kind order.
            for (i, p) in pools.iter_mut().enumerate() {
                while p.devices.peek_free().is_some() {
                    let ready = p
                        .queues
                        .iter()
                        .enumerate()
                        .filter_map(|(qi, q)| {
                            let head = q.front()?;
                            let full = q.len() >= max_batch;
                            let aged = now >= head.at_ns.saturating_add(config.max_delay_ns);
                            (full || aged).then_some((qi / nk, head.at_ns, qi % nk))
                        })
                        .min();
                    let Some((class, _, k)) = ready else { break };
                    let qi = class * nk + k;
                    let batch_len = p.queues[qi].len().min(max_batch);
                    let cost = cost_of(i, k, kinds[k], batch_len as u32)?;
                    let completed_ns = now + cost.ns.max(1);
                    let device = p.devices.dispatch(now, completed_ns).expect("peeked free device");
                    if tango_obs::is_enabled() {
                        let label = format!("{}x{batch_len}", kinds[k].name());
                        tango_obs::track_span_at(
                            Domain::Fleet,
                            now,
                            completed_ns,
                            pool_track_base(i) + device as u32,
                            "fleet.batch",
                            &label,
                        );
                    }
                    for _ in 0..batch_len {
                        let item = p.queues[qi].pop_front().expect("batch_len items queued");
                        records[item.record_idx].outcome = FleetOutcome::Completed { completed_ns };
                        if let Some(m) = metrics.as_deref_mut() {
                            let rec = &records[item.record_idx];
                            let latency = completed_ns - rec.arrival_ns;
                            let slo_met = config.classes[rec.class].slo_ns.map(|slo| latency <= slo);
                            m.on_complete(completed_ns, rec.class, latency, slo_met);
                        }
                    }
                    p.pending -= batch_len;
                    tango_obs::track_event_at(
                        Domain::Fleet,
                        now,
                        pool_track_base(i) + PENDING_TRACK,
                        Phase::Counter,
                        "fleet.queue",
                        "pending",
                        p.pending as i64,
                    );
                    if let Some(m) = metrics.as_deref_mut() {
                        m.on_pending(now, i, p.pending);
                        m.on_dispatch(now, i, completed_ns - now, cost.energy_j);
                    }
                    p.stats.batches += 1;
                    p.stats.completed += batch_len as u64;
                    p.stats.busy_ns += u128::from(completed_ns - now);
                    p.stats.energy_j += cost.energy_j;
                    makespan = makespan.max(completed_ns);
                }
            }

            // 5. Advance the clock to the next event: an arrival, a
            //    completion, a queue head aging past the delay bound (when a
            //    device is idle to take it), or an autoscaler evaluation
            //    (only while work remains — evaluations alone must not keep
            //    a finished simulation alive).
            let mut next = u64::MAX;
            if next_arrival < requests.len() {
                next = next.min(requests[next_arrival].at_ns);
            }
            let outstanding =
                next_arrival < requests.len() || pools.iter().any(|p| p.pending > 0 || p.devices.busy() > 0);
            for p in &pools {
                if let Some(done_at) = p.devices.next_completion() {
                    next = next.min(done_at);
                }
                if p.devices.idle() > 0 {
                    for q in &p.queues {
                        if let Some(head) = q.front() {
                            next = next.min(head.at_ns.saturating_add(config.max_delay_ns));
                        }
                    }
                }
            }
            if let Some(scaler) = &autoscaler {
                if outstanding {
                    next = next.min(scaler.next_eval_ns());
                }
            }
            if next == u64::MAX {
                break;
            }
            debug_assert!(next > now, "the event loop must make progress");
            // Utilization denominator: device-time existing over [now, next].
            for p in pools.iter_mut() {
                p.stats.device_ns += p.devices.active() as u128 * u128::from(next - now);
            }
            now = next;
        }

        debug_assert!(
            pools.iter().all(|p| p.pending == 0),
            "all admitted requests must retire"
        );
        let pools = pools
            .into_iter()
            .map(|mut p| {
                p.stats.final_devices = p.devices.target();
                p.stats
            })
            .collect();
        Ok(FleetReport {
            records: project(&records, config.classes.len()),
            pools,
            makespan_ns: makespan,
        })
    }
}

/// Generated fleets, seeded: the loop above against [`reference`].
#[cfg(test)]
mod differential {
    use super::*;
    use crate::config::{AutoscaleConfig, ClassSpec, PoolSpec, RoutePolicy};
    use crate::cost::TableFleetCost;
    use crate::trace::FleetRequest;
    use tango_nets::NetworkKind;
    use tango_tensor::SplitMix64;

    const KINDS: [NetworkKind; 3] = [NetworkKind::Gru, NetworkKind::CifarNet, NetworkKind::AlexNet];

    struct Case {
        config: FleetConfig,
        costs: Vec<TableFleetCost>,
        trace: FleetTrace,
    }

    fn between(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
        lo + rng.below(hi - lo + 1)
    }

    /// Many requests on one instant, short gaps, and idle stretches
    /// long enough to drain the fleet and let it scale down.
    fn hand_built(rng: &mut SplitMix64, kinds: &[NetworkKind], classes: usize, count: usize) -> FleetTrace {
        let mut at_ns = between(rng, 0, 50);
        let requests = (0..count)
            .map(|_| {
                at_ns += match rng.below(100) {
                    0..=69 => 0,
                    70..=97 => between(rng, 1, 600),
                    _ => between(rng, 100_000, 1_000_000),
                };
                FleetRequest {
                    at_ns,
                    kind: kinds[rng.below(kinds.len() as u64) as usize],
                    class: rng.below(classes as u64) as u32,
                }
            })
            .collect();
        FleetTrace::from_requests(kinds, classes, requests)
    }

    fn case(seed: u64) -> Case {
        let rng = &mut SplitMix64::new(seed);
        let kinds = &KINDS[..between(rng, 1, 3) as usize];
        let pools: Vec<PoolSpec> = (0..between(rng, 1, 4))
            .map(|i| {
                let name = format!("p{i}");
                match rng.below(4) {
                    0 => PoolSpec::fixed(&name, between(rng, 1, 3) as usize),
                    // Starts with nothing: only shed pressure revives it.
                    1 => PoolSpec::elastic(&name, 0, 0, between(rng, 1, 3) as usize),
                    _ => {
                        let min = rng.below(2) as usize;
                        let max = min + between(rng, 1, 3) as usize;
                        PoolSpec::elastic(&name, between(rng, min as u64, max as u64) as usize, min, max)
                    }
                }
            })
            .collect();
        let costs = pools
            .iter()
            .map(|_| {
                let clock_ghz = [0.25, 0.5, 1.0, 2.0][rng.below(4) as usize];
                kinds.iter().fold(TableFleetCost::new(clock_ghz), |c, &kind| {
                    c.with_kind(kind, between(rng, 500, 20_000), between(rng, 0, 1_000))
                })
            })
            .collect();
        // A one-request service is 0.25–84 µs: the tightest SLO sheds
        // `slo_infeasible` behind a queue a few deep.
        let classes: Vec<ClassSpec> = (0..between(rng, 1, 3))
            .map(|i| match rng.below(3) {
                0 => ClassSpec::best_effort(&format!("c{i}")),
                _ => ClassSpec::with_slo(&format!("c{i}"), [15_000, 80_000, 400_000][rng.below(3) as usize]),
            })
            .collect();
        let count = between(rng, 200, 2_000) as usize;
        let trace_seed = rng.next_u64();
        let trace = match rng.below(3) {
            0 => {
                let trough = rng.below(6) as f64 / 10.0;
                let (gap, period) = (between(rng, 200, 3_000), between(rng, 50_000, 500_000));
                FleetTrace::diurnal(kinds, &classes, count, gap, period, trough, trace_seed)
            }
            1 => {
                let (gap, every) = (between(rng, 500, 4_000), between(rng, 50_000, 200_000));
                let (len, factor) = (between(rng, 5_000, 20_000), between(rng, 2, 8));
                FleetTrace::bursty(kinds, &classes, count, gap, every, len, factor, trace_seed)
            }
            _ => hand_built(rng, kinds, classes.len(), count),
        };
        let autoscale = (rng.below(3) > 0).then(|| {
            let low = between(rng, 0, 2);
            AutoscaleConfig {
                interval_ns: between(rng, 1_000, 50_000),
                high_queue_per_device: low + between(rng, 1, 4),
                low_queue_per_device: low,
            }
        });
        let config = FleetConfig {
            pools,
            classes,
            queue_bound: between(rng, 1, 64) as usize,
            max_batch: between(rng, 1, 8) as u32,
            max_delay_ns: between(rng, 0, 5_000),
            policy: RoutePolicy::ALL[rng.below(3) as usize],
            autoscale,
        };
        Case { config, costs, trace }
    }

    #[test]
    fn a_trace_without_kinds_or_requests_is_an_empty_report() {
        let config = case(0).config;
        let costs: Vec<TableFleetCost> = config.pools.iter().map(|_| TableFleetCost::new(1.0)).collect();
        let costs: Vec<&dyn FleetCost> = costs.iter().map(|c| c as &dyn FleetCost).collect();
        let trace = FleetTrace::from_requests(&[], config.classes.len(), Vec::new());
        let got = run_fleet(&trace, &config, &costs).unwrap();
        assert!(got == reference::run_fleet_inner(&trace, &config, &costs, None).unwrap());
        assert!(got.records.is_empty() && got.makespan_ns == 0);
    }

    #[test]
    fn generated_fleets_replay_exactly_as_the_reference_loop() {
        let mcfg = FleetMetricsConfig::with_window(25_000);
        let mut sheds = [0usize; ShedReason::ALL.len()];
        let (mut completed, mut grows, mut shrinks, mut from_zero) = (0usize, 0u64, 0u64, 0u64);
        for seed in 0..400u64 {
            let Case { config, costs, trace } = case(seed);
            config
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: generator made an invalid fleet: {e}"));
            let costs: Vec<&dyn FleetCost> = costs.iter().map(|c| c as &dyn FleetCost).collect();
            let want = reference::run_fleet_inner(&trace, &config, &costs, None).unwrap();
            let got = run_fleet(&trace, &config, &costs).unwrap();
            assert!(
                got == want,
                "seed {seed}: run_fleet left the reference loop: {config:?}"
            );
            let (metered, metrics) = run_fleet_metered(&trace, &config, &costs, &mcfg).unwrap();
            assert!(
                metered == got,
                "seed {seed}: run_fleet_metered's report is not run_fleet's: {config:?}"
            );
            // The hooks fire at the reference's points with its arguments.
            let mut hooks = FleetMetrics::new(&config, &mcfg);
            reference::run_fleet_inner(&trace, &config, &costs, Some(&mut hooks)).unwrap();
            assert!(
                metrics.render_text("") == hooks.finish().render_text(""),
                "seed {seed}: metered series differ from the reference loop's: {config:?}"
            );
            for (count, reason) in sheds.iter_mut().zip(ShedReason::ALL) {
                *count += got.shed_by(reason);
            }
            completed += got.completed();
            for (p, spec) in got.pools.iter().zip(&config.pools) {
                grows += p.grows;
                shrinks += p.shrinks;
                from_zero += u64::from(spec.devices == 0 && p.completed > 0);
            }
        }
        // The generator reaches what it claims to.
        assert!(sheds.iter().all(|&n| n > 1_000), "sheds by reason {sheds:?}");
        assert!(
            completed > 100_000 && grows > 1_000 && shrinks > 1_000,
            "{completed} {grows} {shrinks}"
        );
        assert!(from_zero > 10, "pools revived from zero that served: {from_zero}");
    }

    /// The report keeps one `u64` slot per request at most, however
    /// many of them shed, plus a few words per class.
    #[test]
    fn a_report_holds_at_most_eight_bytes_per_request() {
        for seed in 0..100u64 {
            let Case { config, costs, trace } = case(seed);
            let costs: Vec<&dyn FleetCost> = costs.iter().map(|c| c as &dyn FleetCost).collect();
            let report = run_fleet(&trace, &config, &costs).unwrap();
            let outcomes = &report.records;
            assert_eq!(outcomes.len(), trace.len());
            let columns: usize = outcomes.latencies.iter().map(|c| c.capacity()).sum();
            assert!(
                columns * std::mem::size_of::<u64>() <= 8 * trace.len(),
                "seed {seed}: {columns} slots for {} requests",
                trace.len()
            );
            let classes = config.classes.len();
            assert!(outcomes.latencies.capacity() <= classes && outcomes.sheds.capacity() <= classes);
            let fixed = 256 * (classes + config.pools.len());
            assert!(
                report.heap_bytes() <= columns * size_of::<u64>() + fixed,
                "seed {seed}: {} bytes for {columns} slots",
                report.heap_bytes()
            );
            assert!(
                report.class_latency(classes).is_none(),
                "seed {seed}: a class past the config's"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AutoscaleConfig, ClassSpec, FleetConfig, PoolSpec, RoutePolicy};
    use crate::cost::TableFleetCost;
    use crate::trace::FleetRequest;
    use tango_nets::NetworkKind;

    const GRU: NetworkKind = NetworkKind::Gru;

    fn config(pools: Vec<PoolSpec>, policy: RoutePolicy) -> FleetConfig {
        FleetConfig {
            pools,
            classes: vec![ClassSpec::best_effort("be")],
            queue_bound: 64,
            max_batch: 4,
            max_delay_ns: 1000,
            policy,
            autoscale: None,
        }
    }

    fn burst(n: usize, at_ns: u64) -> FleetTrace {
        FleetTrace::from_requests(
            &[GRU],
            1,
            (0..n)
                .map(|_| FleetRequest {
                    at_ns,
                    kind: GRU,
                    class: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn single_request_accounting_is_exact() {
        let cfg = config(vec![PoolSpec::fixed("only", 1)], RoutePolicy::CostAware);
        let cost = TableFleetCost::new(1.0).with_kind(GRU, 500, 100);
        let report = run_fleet(&burst(1, 10), &cfg, &[&cost]).unwrap();
        assert_eq!(report.completed(), 1);
        // Waits max_delay_ns (1000), then runs 600 cycles at 1 GHz.
        assert_eq!(report.records.latencies(0), [1000 + 600]);
        assert_eq!(report.makespan_ns, 10 + 1600);
        assert_eq!(report.pools[0].batches, 1);
        assert!(report.energy_per_request_j() > 0.0);
    }

    #[test]
    fn cost_aware_routing_beats_round_robin_on_heterogeneous_pools() {
        // A fast pool and a 10x slower pool. Round-robin alternates and
        // pays the slow pool's clock on half the traffic; cost-aware
        // sends work there only when the fast pool's backlog justifies
        // it, so p99 must improve.
        let fast = TableFleetCost::new(2.0).with_kind(GRU, 2000, 500);
        let slow = TableFleetCost::new(0.2).with_kind(GRU, 2000, 500);
        let pools = || vec![PoolSpec::fixed("fast", 2), PoolSpec::fixed("slow", 2)];
        let trace = FleetTrace::bursty(
            &[GRU],
            &[ClassSpec::best_effort("be")],
            400,
            2000,
            200_000,
            40_000,
            4,
            17,
        );
        let p99 = |policy| {
            let report = run_fleet(&trace, &config(pools(), policy), &[&fast, &slow]).unwrap();
            assert_eq!(report.shed(), 0);
            report.class_latency(0).unwrap().p99
        };
        let (rr, ca) = (p99(RoutePolicy::RoundRobin), p99(RoutePolicy::CostAware));
        assert!(ca < rr, "cost-aware p99 ({ca}) must beat round-robin ({rr})");
    }

    #[test]
    fn identical_runs_are_identical() {
        let cfg = FleetConfig {
            pools: vec![PoolSpec::elastic("a", 2, 1, 4), PoolSpec::fixed("b", 1)],
            classes: vec![ClassSpec::with_slo("int", 5_000_000), ClassSpec::best_effort("be")],
            queue_bound: 16,
            max_batch: 4,
            max_delay_ns: 2000,
            policy: RoutePolicy::CostAware,
            autoscale: Some(AutoscaleConfig {
                interval_ns: 50_000,
                ..AutoscaleConfig::default()
            }),
        };
        let classes = cfg.classes.clone();
        let trace = FleetTrace::diurnal(&[GRU, NetworkKind::CifarNet], &classes, 600, 1500, 2_000_000, 0.2, 23);
        let a_cost = TableFleetCost::new(1.0);
        let b_cost = TableFleetCost::new(0.5);
        let a = run_fleet(&trace, &cfg, &[&a_cost, &b_cost]).unwrap();
        let b = run_fleet(&trace, &cfg, &[&a_cost, &b_cost]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn autoscaler_grows_under_burst_and_drains_after() {
        let cfg = FleetConfig {
            pools: vec![PoolSpec::elastic("elastic", 1, 1, 8)],
            classes: vec![ClassSpec::best_effort("be")],
            queue_bound: 1024,
            max_batch: 1,
            max_delay_ns: 0,
            policy: RoutePolicy::LeastQueue,
            autoscale: Some(AutoscaleConfig {
                interval_ns: 10_000,
                high_queue_per_device: 2,
                low_queue_per_device: 1,
            }),
        };
        // 120 requests all at t=0 against a 10 µs service time (a lone
        // device needs 1.2 ms), then a long quiet gap before one
        // straggler — the window in which the drained pool must shrink
        // back to its floor.
        let cost = TableFleetCost::new(1.0).with_kind(GRU, 10_000, 0);
        let mut requests: Vec<FleetRequest> = (0..120)
            .map(|_| FleetRequest {
                at_ns: 0,
                kind: GRU,
                class: 0,
            })
            .collect();
        requests.push(FleetRequest {
            at_ns: 5_000_000,
            kind: GRU,
            class: 0,
        });
        let trace = FleetTrace::from_requests(&[GRU], 1, requests);
        let report = run_fleet(&trace, &cfg, &[&cost]).unwrap();
        assert_eq!(report.completed(), 121);
        let p = &report.pools[0];
        assert!(p.grows > 0, "backlog must trigger growth");
        assert!(
            p.peak_devices > 1,
            "peak {} must exceed the starting size",
            p.peak_devices
        );
        assert!(p.shrinks > 0, "the drained pool must shrink back");
        assert_eq!(p.final_devices, 1, "idle pool returns to its floor");
    }

    #[test]
    fn metered_replay_is_byte_identical_to_unmetered() {
        // Metrics collection must be pure observation: the report from
        // run_fleet_metered equals run_fleet's exactly, on a config
        // that exercises autoscaling, SLO shedding, and batching.
        let cfg = FleetConfig {
            pools: vec![PoolSpec::elastic("a", 2, 1, 4), PoolSpec::fixed("b", 1)],
            classes: vec![ClassSpec::with_slo("int", 200_000), ClassSpec::best_effort("be")],
            queue_bound: 16,
            max_batch: 4,
            max_delay_ns: 2000,
            policy: RoutePolicy::CostAware,
            autoscale: Some(AutoscaleConfig {
                interval_ns: 50_000,
                ..AutoscaleConfig::default()
            }),
        };
        let classes = cfg.classes.clone();
        let trace = FleetTrace::bursty(
            &[GRU, NetworkKind::CifarNet],
            &classes,
            500,
            1500,
            300_000,
            12_000,
            6,
            29,
        );
        let a_cost = TableFleetCost::new(1.0).with_kind(GRU, 20_000, 10);
        let b_cost = TableFleetCost::new(0.5);
        let costs: [&dyn FleetCost; 2] = [&a_cost, &b_cost];
        let plain = run_fleet(&trace, &cfg, &costs).unwrap();
        let mcfg = crate::metrics::FleetMetricsConfig::with_window(100_000);
        let (metered, metrics) = run_fleet_metered(&trace, &cfg, &costs, &mcfg).unwrap();
        assert_eq!(plain, metered);
        // The registry saw every request and every shed.
        let arrivals: u64 = cfg
            .classes
            .iter()
            .filter_map(|c| {
                metrics
                    .registry
                    .counter_total(&format!("tango_fleet_requests_total{{class=\"{}\"}}", c.name))
            })
            .sum();
        assert_eq!(arrivals, plain.records.len() as u64);
        // Every interactive request lands in the SLO ledger exactly
        // once: sheds and SLO-missing completions as bad, the rest good.
        let slo = &metrics.slos[0];
        let done = plain.records.latencies(0);
        let shed: usize = ShedReason::ALL.iter().map(|&r| plain.records.shed(0, r)).sum();
        assert_eq!((slo.good + slo.bad) as usize, done.len() + shed);
        let missed = shed + done.iter().filter(|&&l| l > 200_000).count();
        assert_eq!(slo.bad as usize, missed);
        tango_obs::metrics::validate_exposition(&metrics.prometheus_text()).unwrap();
    }

    #[test]
    fn slo_class_sheds_explicitly_while_best_effort_queues() {
        let cfg = FleetConfig {
            pools: vec![PoolSpec::fixed("only", 1)],
            classes: vec![ClassSpec::with_slo("int", 30_000), ClassSpec::best_effort("be")],
            queue_bound: 1024,
            max_batch: 1,
            max_delay_ns: 0,
            policy: RoutePolicy::CostAware,
            autoscale: None,
        };
        let cost = TableFleetCost::new(1.0).with_kind(GRU, 10_000, 0);
        // 40 interleaved requests at t=0: classes alternate.
        let trace = FleetTrace::from_requests(
            &[GRU],
            2,
            (0..40)
                .map(|i| FleetRequest {
                    at_ns: 0,
                    kind: GRU,
                    class: i % 2,
                })
                .collect(),
        );
        let report = run_fleet(&trace, &cfg, &[&cost]).unwrap();
        let slo_sheds = report.shed_by(ShedReason::SloInfeasible);
        assert!(
            slo_sheds > 0,
            "deep queue must become SLO-infeasible for the tight class"
        );
        // Best-effort requests never shed.
        for reason in ShedReason::ALL {
            assert_eq!(report.records.shed(1, reason), 0, "best-effort must queue, not shed");
        }
        assert_eq!(report.records.latencies(1).len(), 20);
        // The tight class that did complete met admission's estimate
        // conservatively — no completed interactive request waited
        // past the bound the estimator allowed.
        assert!(report.completed() > 0);
    }
}
