//! Router and autoscaler edge cases at the engine level: exact shed
//! accounting under total saturation, drain-before-teardown when a pool
//! scales to zero mid-flight, and deterministic tie-breaking between
//! equal pools.

use tango_fleet::{
    run_fleet, AutoscaleConfig, ClassSpec, FleetConfig, FleetRequest, FleetTrace, PoolSpec, RoutePolicy, ShedReason,
    TableFleetCost,
};
use tango_nets::NetworkKind;

const GRU: NetworkKind = NetworkKind::Gru;

fn request(at_ns: u64) -> FleetRequest {
    FleetRequest {
        at_ns,
        kind: GRU,
        class: 0,
    }
}

#[test]
fn saturated_fleet_sheds_exactly_the_overflow() {
    // 2 pools x queue bound 4, one device each, max_batch 1, and a
    // service time so long nothing drains during the burst: of 50
    // simultaneous requests, exactly 8 are admitted (admission for one
    // timestamp runs before dispatch, so the bound caps each pool at 4
    // pending) and 42 shed as queue_full. Every policy must account
    // identically — saturation leaves no routing freedom.
    for policy in RoutePolicy::ALL {
        let cfg = FleetConfig {
            pools: vec![PoolSpec::fixed("a", 1), PoolSpec::fixed("b", 1)],
            classes: vec![ClassSpec::best_effort("be")],
            queue_bound: 4,
            max_batch: 1,
            max_delay_ns: 0,
            policy,
            autoscale: None,
        };
        let cost = TableFleetCost::new(1.0).with_kind(GRU, 100_000_000, 0);
        let trace = FleetTrace::from_requests(&[GRU], 1, (0..50).map(|_| request(0)).collect());
        let report = run_fleet(&trace, &cfg, &[&cost, &cost]).unwrap();
        assert_eq!(report.completed(), 8, "policy {}", policy.name());
        assert_eq!(report.shed(), 42, "policy {}", policy.name());
        assert_eq!(report.shed_by(ShedReason::QueueFull), 42, "every shed is queue_full");
        assert_eq!(report.shed_by(ShedReason::SloInfeasible), 0);
        assert_eq!(report.shed_by(ShedReason::NoCapacity), 0);
        // Sheds are counted with their class and reason — no silent drops.
        assert_eq!(report.records.shed(0, ShedReason::QueueFull), 42);
    }
}

#[test]
fn pool_scaled_to_zero_mid_flight_drains_before_teardown() {
    // One elastic pool with floor 0 next to a fixed pool. A burst puts
    // work in flight on both; the quiet period afterwards lets the
    // autoscaler take the elastic pool to zero. Its in-flight batches
    // must complete (drain-before-teardown), later traffic must route
    // around the dead pool, and the run must terminate.
    let cfg = FleetConfig {
        pools: vec![PoolSpec::fixed("fixed", 1), PoolSpec::elastic("elastic", 2, 0, 2)],
        classes: vec![ClassSpec::best_effort("be")],
        queue_bound: 1024,
        max_batch: 1,
        max_delay_ns: 0,
        policy: RoutePolicy::LeastQueue,
        autoscale: Some(AutoscaleConfig {
            interval_ns: 10_000,
            high_queue_per_device: 100, // never grow
            low_queue_per_device: 1,
        }),
    };
    let cost = TableFleetCost::new(1.0).with_kind(GRU, 50_000, 0); // 50 µs
    let burst: Vec<FleetRequest> = (0..6).map(|_| request(0)).collect();
    let mut requests = burst.clone();
    // Stragglers long after the elastic pool has scaled away.
    requests.push(request(2_000_000));
    requests.push(request(2_000_000));
    let trace = FleetTrace::from_requests(&[GRU], 1, requests);
    let report = run_fleet(&trace, &cfg, &[&cost, &cost]).unwrap();

    assert_eq!(report.completed(), 8, "every admitted request must retire");
    let elastic = &report.pools[1];
    assert!(elastic.completed > 0, "the elastic pool ran work before scaling away");
    assert_eq!(
        elastic.final_devices, 0,
        "the idle elastic pool must reach its floor of zero"
    );
    assert!(elastic.shrinks > 0);
    // The stragglers arrived after teardown: only the fixed pool could
    // take them, so the elastic pool ran exactly what it ran without them.
    let burst_only = run_fleet(&FleetTrace::from_requests(&[GRU], 1, burst), &cfg, &[&cost, &cost]).unwrap();
    assert_eq!(
        elastic.completed, burst_only.pools[1].completed,
        "dead pool must receive nothing"
    );
}

#[test]
fn equal_pools_tie_break_to_the_lowest_index_deterministically() {
    // Two byte-identical pools: least-queue and cost-aware must send
    // the first request (and every perfectly tied one) to pool 0, and
    // repeated runs must agree exactly.
    for policy in [RoutePolicy::LeastQueue, RoutePolicy::CostAware] {
        let cfg = FleetConfig {
            pools: vec![PoolSpec::fixed("twin0", 1), PoolSpec::fixed("twin1", 1)],
            classes: vec![ClassSpec::best_effort("be")],
            queue_bound: 64,
            max_batch: 1,
            max_delay_ns: 0,
            policy,
            autoscale: None,
        };
        let cost = TableFleetCost::new(1.0).with_kind(GRU, 10_000, 0);
        // Well-spaced arrivals: both pools idle and empty at each one.
        let trace = FleetTrace::from_requests(&[GRU], 1, (0..5).map(|i| request(i * 1_000_000)).collect());
        let run = || run_fleet(&trace, &cfg, &[&cost, &cost]).unwrap();
        let report = run();
        assert_eq!(report.shed(), 0, "nothing should shed at this load");
        assert_eq!(
            report.pools[0].completed,
            5,
            "{}: ties must break to pool 0",
            policy.name()
        );
        assert_eq!(
            report.pools[1].completed,
            0,
            "{}: ties must break to pool 0",
            policy.name()
        );
        assert_eq!(run(), report, "replays must be byte-identical");
    }
}

#[test]
fn zero_device_fleet_sheds_everything_as_no_capacity() {
    let cfg = FleetConfig {
        pools: vec![PoolSpec::elastic("dead", 0, 0, 2)],
        classes: vec![ClassSpec::best_effort("be")],
        queue_bound: 8,
        max_batch: 1,
        max_delay_ns: 0,
        policy: RoutePolicy::CostAware,
        autoscale: None,
    };
    let cost = TableFleetCost::new(1.0);
    let trace = FleetTrace::from_requests(&[GRU], 1, vec![request(0), request(10)]);
    let report = run_fleet(&trace, &cfg, &[&cost]).unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.shed_by(ShedReason::NoCapacity), 2);
    assert_eq!(report.makespan_ns, 0);
}
