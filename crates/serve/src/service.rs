//! The live, thread-backed inference service.
//!
//! Where [`crate::engine`] *models* the service in virtual time, this
//! module actually runs it: each worker thread owns one simulated
//! device with the configured networks built on it, pulls coalescable
//! requests off shared bounded queues, executes them as one batched
//! inference (`Network::infer_batch`), and answers every rider with the
//! batch's report. Clients block on a [`Ticket`].
//!
//! Batches coalesce *identical* requests — same network, same payload
//! seed — because the simulator binds one logical input per launch (see
//! `Network::infer_batch`). Distinct payloads therefore ride in
//! separate batches; the engine, whose costs are payload-independent,
//! is the tool for heterogeneous-traffic what-ifs.

use crate::error::{Result, ServeError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use tango_nets::{build_network, synthetic_input, NetworkKind, Preset};
use tango_sim::{Gpu, GpuConfig, SimOptions};

/// Live-service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Networks the service hosts (each worker device builds them all).
    pub kinds: Vec<NetworkKind>,
    /// Model scale preset.
    pub preset: Preset,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Device configuration for every pool member.
    pub gpu: GpuConfig,
    /// Simulation options (its `batch` field is set per dispatch).
    pub options: SimOptions,
    /// Worker threads = pool devices. Zero is allowed: the service
    /// admits and queues but never executes — useful for testing
    /// admission control deterministically.
    pub workers: usize,
    /// Per-network queue bound; submissions past it are shed.
    pub queue_bound: usize,
    /// Largest coalesced batch one dispatch may carry.
    pub max_batch: u32,
}

/// What a completed request receives.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReply {
    /// The network that ran.
    pub kind: NetworkKind,
    /// How many coalesced requests shared the execution.
    pub batch: u32,
    /// Simulated cycles of the batched device pass.
    pub cycles: u64,
    /// The network output (identical for every rider — the batch was
    /// coalesced from identical requests).
    pub output: Vec<f32>,
}

struct Pending {
    input_seed: u64,
    reply: mpsc::Sender<Result<InferenceReply>>,
}

struct State {
    queues: Vec<VecDeque<Pending>>,
    shutting_down: bool,
    shed: u64,
    completed: u64,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    kinds: Vec<NetworkKind>,
    queue_bound: usize,
    max_batch: usize,
}

impl Shared {
    /// The state, recovered if a thread panicked holding it: every
    /// mutation of `State` is one push, pop, remove or add, so a panic
    /// cannot leave it half-updated.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for work, recovering a poisoned lock as [`lock`](Self::lock) does.
    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.work.wait(state).unwrap_or_else(PoisonError::into_inner)
    }
}

/// A handle to one submitted request; [`wait`](Self::wait) blocks until
/// its batch executes.
pub struct Ticket {
    rx: mpsc::Receiver<Result<InferenceReply>>,
}

impl Ticket {
    /// Blocks until the request's batch completes.
    ///
    /// # Errors
    ///
    /// Propagates execution failures; returns [`ServeError::Shutdown`]
    /// if the service stopped before running the request.
    pub fn wait(self) -> Result<InferenceReply> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// The running service: worker threads over a pool of simulated
/// devices, fed through bounded per-network queues.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Builds the device pool (every worker constructs all configured
    /// networks on its own GPU) and starts the workers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an empty kind list, a zero
    /// queue bound or batch limit; network-build failures surface from
    /// the first request instead (workers build lazily on startup).
    pub fn start(config: ServiceConfig) -> Result<Self> {
        if config.kinds.is_empty() {
            return Err(ServeError::Config("service needs at least one network kind".into()));
        }
        if config.queue_bound == 0 {
            return Err(ServeError::Config("queue_bound must be at least 1".into()));
        }
        if config.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be at least 1".into()));
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: config.kinds.iter().map(|_| VecDeque::new()).collect(),
                shutting_down: false,
                shed: 0,
                completed: 0,
            }),
            work: Condvar::new(),
            kinds: config.kinds.clone(),
            queue_bound: config.queue_bound,
            max_batch: config.max_batch as usize,
        });
        // Workers record into the starting thread's recording, if any.
        let recording = tango_obs::current_recording();
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let config = config.clone();
                let recording = recording.clone();
                std::thread::spawn(move || {
                    if let Some(recording) = recording {
                        recording.join();
                    }
                    worker_loop(&shared, &config)
                })
            })
            .collect();
        Ok(Service { shared, workers })
    }

    /// Submits one request for `kind` with the payload identified by
    /// `input_seed`. Non-blocking: admission happens immediately,
    /// execution asynchronously.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shed`] when `kind`'s queue is at its
    /// bound, [`ServeError::Shutdown`] after [`shutdown`](Self::shutdown)
    /// began, and [`ServeError::Config`] for a kind the service does not
    /// host.
    pub fn submit(&self, kind: NetworkKind, input_seed: u64) -> Result<Ticket> {
        let Some(k) = self.shared.kinds.iter().position(|&x| x == kind) else {
            return Err(ServeError::Config(format!("service does not host {kind}")));
        };
        let mut state = self.shared.lock();
        if state.shutting_down {
            return Err(ServeError::Shutdown);
        }
        let queue = &mut state.queues[k];
        if queue.len() >= self.shared.queue_bound {
            let queue_len = queue.len();
            state.shed += 1;
            tango_obs::hcounter("serve.service", "shed_total", state.shed as i64);
            return Err(ServeError::Shed { kind, queue_len });
        }
        let (tx, rx) = mpsc::channel();
        queue.push_back(Pending { input_seed, reply: tx });
        tango_obs::hcounter("serve.service", "queue_depth", queue.len() as i64);
        drop(state);
        self.shared.work.notify_one();
        Ok(Ticket { rx })
    }

    /// Requests shed at admission so far.
    pub fn shed_count(&self) -> u64 {
        self.shared.lock().shed
    }

    /// Requests completed so far.
    pub fn completed_count(&self) -> u64 {
        self.shared.lock().completed
    }

    /// Stops admitting, drains every queued request, and joins the
    /// workers. With zero workers, queued requests are answered with
    /// [`ServeError::Shutdown`].
    pub fn shutdown(mut self) {
        {
            let mut state = self.shared.lock();
            state.shutting_down = true;
            if self.workers.is_empty() {
                // Nobody will ever drain the queues; fail the waiters.
                for queue in &mut state.queues {
                    for pending in queue.drain(..) {
                        let _ = pending.reply.send(Err(ServeError::Shutdown));
                    }
                }
            }
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: build the device, then serve batches until shutdown
/// drains the queues.
fn worker_loop(shared: &Shared, config: &ServiceConfig) {
    let mut gpu = Gpu::new(config.gpu.clone());
    let mut networks = Vec::with_capacity(shared.kinds.len());
    for &kind in &shared.kinds {
        match build_network(&mut gpu, kind, config.preset, config.seed) {
            Ok(net) => networks.push(net),
            Err(e) => {
                // Device construction failed: answer everything, forever,
                // with the error (each worker is independent).
                fail_all_requests(shared, &e.to_string());
                return;
            }
        }
    }

    loop {
        let (k, batch) = {
            let mut state = shared.lock();
            loop {
                if let Some((k, head_seed)) = state
                    .queues
                    .iter()
                    .enumerate()
                    .find_map(|(k, q)| q.front().map(|p| (k, p.input_seed)))
                {
                    // Coalesce: pull every queued request for the same
                    // (kind, payload) up to max_batch. Identical requests
                    // are the only ones a batched launch can answer.
                    let queue = &mut state.queues[k];
                    let mut batch = Vec::new();
                    let mut i = 0;
                    while i < queue.len() && batch.len() < shared.max_batch {
                        if queue[i].input_seed == head_seed {
                            batch.push(queue.remove(i).expect("index in bounds"));
                        } else {
                            i += 1;
                        }
                    }
                    break (k, batch);
                }
                if state.shutting_down {
                    return;
                }
                state = shared.wait(state);
            }
        };

        let kind = shared.kinds[k];
        let net = &networks[k];
        // Host-clock batch span: the worker's wall time executing one
        // coalesced dispatch (the virtual cost rides inside as vspans).
        let _batch_span = tango_obs::is_enabled()
            .then(|| tango_obs::hspan("serve.batch", &format!("{}x{}", kind.name(), batch.len())));
        let input = synthetic_input(net.input_spec(), batch[0].input_seed);
        let inputs = vec![input; batch.len()];
        let outcome = net
            .infer_batch(&mut gpu, &inputs, &config.options)
            .map_err(|e| ServeError::Sim(tango::TangoError::Net(e)));
        match outcome {
            Ok(report) => {
                let reply = InferenceReply {
                    kind,
                    batch: batch.len() as u32,
                    cycles: report.total_cycles(),
                    output: report.output.as_slice().to_vec(),
                };
                let mut state = shared.lock();
                state.completed += batch.len() as u64;
                tango_obs::hcounter("serve.service", "completed_total", state.completed as i64);
                drop(state);
                for pending in batch {
                    let _ = pending.reply.send(Ok(reply.clone()));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                for pending in batch {
                    let _ = pending.reply.send(Err(ServeError::Config(msg.clone())));
                }
            }
        }
    }
}

fn fail_all_requests(shared: &Shared, msg: &str) {
    loop {
        let batch: Vec<Pending> = {
            let mut state = shared.lock();
            loop {
                let drained: Vec<Pending> = state.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
                if !drained.is_empty() {
                    break drained;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.wait(state);
            }
        };
        for pending in batch {
            let _ = pending.reply.send(Err(ServeError::Config(msg.to_string())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_lock_still_admits_counts_and_shuts_down() {
        // No workers: nothing builds a network or drains the queue.
        let service = Service::start(ServiceConfig {
            kinds: vec![NetworkKind::Gru],
            preset: Preset::Tiny,
            seed: 1,
            gpu: GpuConfig::gp102(),
            options: SimOptions::new(),
            workers: 0,
            queue_bound: 2,
            max_batch: 1,
        })
        .unwrap();
        let shared = Arc::clone(&service.shared);
        let holder = std::thread::spawn(move || {
            let _state = shared.state.lock().unwrap();
            panic!("panics while holding the service lock");
        });
        assert!(holder.join().is_err());
        assert!(service.shared.state.is_poisoned());

        let ticket = service.submit(NetworkKind::Gru, 1).expect("admitted");
        service.submit(NetworkKind::Gru, 2).expect("admitted");
        assert!(matches!(
            service.submit(NetworkKind::Gru, 3),
            Err(ServeError::Shed { queue_len: 2, .. })
        ));
        assert_eq!((service.shed_count(), service.completed_count()), (1, 0));
        service.shutdown();
        assert!(matches!(ticket.wait(), Err(ServeError::Shutdown)));
    }
}
