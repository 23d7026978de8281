//! Live-service integration: concurrent clients, coalesced batching,
//! admission control, and drain-on-shutdown.

use tango_nets::{NetworkKind, Preset};
use tango_serve::{ServeError, Service, ServiceConfig};
use tango_sim::{GpuConfig, SimOptions};

fn config(workers: usize, queue_bound: usize, max_batch: u32) -> ServiceConfig {
    ServiceConfig {
        kinds: vec![NetworkKind::Gru],
        preset: Preset::Tiny,
        seed: 7,
        gpu: GpuConfig::gp102(),
        options: SimOptions::new(),
        workers,
        queue_bound,
        max_batch,
    }
}

#[test]
fn concurrent_identical_requests_coalesce_and_agree() {
    let service = Service::start(config(1, 64, 8)).expect("start");
    // Submit a burst of identical requests before the worker can drain
    // them; they must coalesce into batches and all receive the same
    // output.
    let tickets: Vec<_> = (0..6)
        .map(|_| service.submit(NetworkKind::Gru, 3).expect("admitted"))
        .collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("completed")).collect();
    let first = &replies[0];
    assert!(first.cycles > 0);
    assert!(!first.output.is_empty());
    for reply in &replies {
        assert_eq!(reply.output, first.output, "coalesced riders must share one output");
        assert!(reply.batch >= 1 && reply.batch <= 8);
    }
    // At least one multi-request batch must have formed out of 6
    // identical submissions against a single busy device.
    assert!(replies.iter().any(|r| r.batch > 1), "burst should coalesce");
    assert_eq!(service.completed_count(), 6);
    assert_eq!(service.shed_count(), 0);
    service.shutdown();
}

#[test]
fn distinct_payloads_do_not_coalesce() {
    let service = Service::start(config(1, 64, 8)).expect("start");
    let a = service.submit(NetworkKind::Gru, 1).expect("admitted");
    let b = service.submit(NetworkKind::Gru, 2).expect("admitted");
    let (ra, rb) = (a.wait().expect("a"), b.wait().expect("b"));
    assert_ne!(ra.output, rb.output, "different payloads, different outputs");
    service.shutdown();
}

#[test]
fn admission_control_sheds_past_queue_bound() {
    // Zero workers: nothing drains, so the queue fills deterministically.
    let service = Service::start(config(0, 3, 4)).expect("start");
    let mut admitted = Vec::new();
    let mut sheds = 0;
    for i in 0..5 {
        match service.submit(NetworkKind::Gru, i) {
            Ok(ticket) => admitted.push(ticket),
            Err(ServeError::Shed { kind, queue_len }) => {
                assert_eq!(kind, NetworkKind::Gru);
                assert_eq!(queue_len, 3);
                sheds += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(admitted.len(), 3);
    assert_eq!(sheds, 2);
    assert_eq!(service.shed_count(), 2);
    service.shutdown();
    // Queued-but-never-run requests are answered with Shutdown.
    for ticket in admitted {
        assert!(matches!(ticket.wait(), Err(ServeError::Shutdown)));
    }
}

#[test]
fn unknown_kinds_and_bad_configs_are_rejected() {
    let service = Service::start(config(0, 4, 1)).expect("start");
    assert!(matches!(
        service.submit(NetworkKind::AlexNet, 0),
        Err(ServeError::Config(_))
    ));
    service.shutdown();
    let mut bad = config(1, 0, 1);
    assert!(Service::start(bad.clone()).is_err());
    bad.queue_bound = 4;
    bad.max_batch = 0;
    assert!(Service::start(bad.clone()).is_err());
    bad.max_batch = 1;
    bad.kinds.clear();
    assert!(Service::start(bad).is_err());
}

#[test]
fn clients_on_threads_all_complete() {
    let service = std::sync::Arc::new(Service::start(config(2, 128, 4)).expect("start"));
    let handles: Vec<_> = (0..4)
        .map(|client| {
            let service = std::sync::Arc::clone(&service);
            std::thread::spawn(move || {
                (0..3)
                    .map(|i| {
                        service
                            .submit(NetworkKind::Gru, (client % 2) as u64)
                            .expect("admitted")
                            .wait()
                            .unwrap_or_else(|e| panic!("client {client} request {i}: {e}"))
                            .cycles
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut total = 0;
    for handle in handles {
        total += handle.join().expect("client thread").len();
    }
    assert_eq!(total, 12);
    assert_eq!(service.completed_count(), 12);
    match std::sync::Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => panic!("all clients joined; the Arc must be unique"),
    }
}

#[test]
fn workers_record_into_the_starters_recording() {
    // Started while this thread records: the worker's batch spans land in
    // this thread's drain, on the worker's own track.
    tango_obs::enable(1 << 16);
    let service = Service::start(config(1, 64, 8)).expect("start");
    tango_obs::disable();
    service
        .submit(NetworkKind::Gru, 1)
        .expect("admitted")
        .wait()
        .expect("completed");
    service.shutdown();
    let trace = tango_obs::drain();
    let batches: Vec<_> = trace.events.iter().filter(|e| e.cat == "serve.batch").collect();
    assert_eq!(batches.len(), 2, "one batch span: {:?}", trace.events);
    assert!(batches
        .iter()
        .all(|e| e.domain == tango_obs::Domain::Host && e.tid == 2));

    // Started while this thread does not record: the workers record nothing.
    let service = Service::start(config(1, 64, 8)).expect("start");
    service
        .submit(NetworkKind::Gru, 1)
        .expect("admitted")
        .wait()
        .expect("completed");
    service.shutdown();
    assert!(tango_obs::drain().is_empty());
}
