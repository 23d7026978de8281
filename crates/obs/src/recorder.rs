//! The flight recorder: per-thread recordings, ring buffers, and the
//! virtual-cycle cursor.
//!
//! A *recording* belongs to the thread that called [`enable`] and to
//! the threads that thread hands it to ([`current_recording`] →
//! [`RecordingHandle::join`]); every other thread is unaffected, so two
//! threads can record at once without seeing each other's events. Each
//! participating thread appends to a ring of its own, on a track id
//! that counts from 1 within the recording.
//!
//! Recording is a three-step fast path: load the thread's gate (one
//! thread-local `bool`), grab the thread's ring behind an uncontended
//! mutex, append. Nothing allocates, formats, or locks when the gate is
//! off — call sites that build dynamic names should themselves branch
//! on [`is_enabled`] first.
//!
//! Rings are *bounded*: when a ring is full the oldest event is dropped
//! and counted, so a long run degrades into a flight recorder of the
//! most recent window instead of growing without bound.

use crate::event::{Domain, Event, Phase};
use crate::trace::Trace;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static HOST_EPOCH: OnceLock<Instant> = OnceLock::new();

#[derive(Debug)]
struct Ring {
    tid: u32,
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// One recording: the ring bound its threads share and their rings, in
/// track-id order (a ring's track id is its position plus one).
#[derive(Debug)]
struct Recording {
    cap: usize,
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
}

/// The recording this thread takes part in and its own ring there.
struct Local {
    recording: Arc<Recording>,
    ring: Arc<Mutex<Ring>>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    static VCURSOR: Cell<u64> = const { Cell::new(0) };
}

/// Makes the calling thread record into `recording` on a fresh track,
/// with its virtual cursor back at zero.
fn install(recording: Arc<Recording>) {
    let ring = {
        let mut rings = recording.rings.lock().expect("obs recording lock");
        let ring = Arc::new(Mutex::new(Ring {
            tid: rings.len() as u32 + 1,
            cap: recording.cap,
            events: VecDeque::new(),
            dropped: 0,
        }));
        rings.push(Arc::clone(&ring));
        ring
    };
    LOCAL.with(|l| *l.borrow_mut() = Some(Local { recording, ring }));
    VCURSOR.with(|c| c.set(0));
    ON.with(|on| on.set(true));
}

/// Starts a fresh recording on the calling thread with a per-thread
/// ring capacity of `cap` events (clamped to at least 1). The thread's
/// previous recording, if any, is let go undrained; its virtual cursor
/// restarts at zero and its track id at 1.
pub fn enable(cap: usize) {
    install(Arc::new(Recording {
        cap: cap.max(1),
        rings: Mutex::new(Vec::new()),
    }));
}

/// Stops the calling thread recording. Its buffered events, and those of
/// the threads it handed the recording to, stay drainable.
pub fn disable() {
    ON.with(|on| on.set(false));
}

/// Whether this thread is recording. One thread-local load — the gate
/// every recording call (and every call site building a dynamic name)
/// checks first.
#[inline]
pub fn is_enabled() -> bool {
    ON.with(Cell::get)
}

/// A recording to hand to another thread: see [`current_recording`].
#[derive(Debug, Clone)]
pub struct RecordingHandle(Arc<Recording>);

/// This thread's recording, for the threads it starts to
/// [`join`](RecordingHandle::join); `None` when this thread is not
/// recording.
pub fn current_recording() -> Option<RecordingHandle> {
    if !is_enabled() {
        return None;
    }
    LOCAL.with(|l| {
        l.borrow()
            .as_ref()
            .map(|local| RecordingHandle(Arc::clone(&local.recording)))
    })
}

impl RecordingHandle {
    /// Makes the calling thread record into this recording on a track
    /// of its own, so the recording's owner drains its events too.
    pub fn join(self) {
        install(self.0);
    }
}

/// Monotonic nanoseconds since the first host-clock observation of the
/// process (the host-domain timestamp base).
pub fn host_now_ns() -> u64 {
    HOST_EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's virtual-cycle cursor.
pub fn virtual_now() -> u64 {
    VCURSOR.with(|c| c.get())
}

/// Advances this thread's virtual cursor by `cycles` (a retired launch).
pub fn advance_virtual(cycles: u64) {
    VCURSOR.with(|c| c.set(c.get().saturating_add(cycles)));
}

/// Appends an event to this thread's ring, on logical track `tid` or,
/// when `None`, on the thread's own track. No-op when disabled.
fn record(domain: Domain, ts: u64, tid: Option<u32>, phase: Phase, cat: &'static str, name: &str, value: i64) {
    if !is_enabled() {
        return;
    }
    LOCAL.with(|l| {
        if let Some(local) = l.borrow().as_ref() {
            let mut ring = local.ring.lock().expect("obs ring lock");
            let tid = tid.unwrap_or(ring.tid);
            ring.push(Event {
                domain,
                tid,
                ts,
                phase,
                cat,
                name: name.to_string(),
                value,
            });
        }
    });
}

/// Collects this thread's recording — its own ring and those of the
/// threads it handed the recording to — into a [`Trace`], emptying the
/// rings (recording continues if still enabled). Tracks are ordered by
/// track id; events within a track keep append order, which is
/// chronological (every clock is monotonic per track). Empty when this
/// thread has no recording.
pub fn drain() -> Trace {
    let mut trace = Trace {
        events: Vec::new(),
        dropped: 0,
        dropped_by_track: Vec::new(),
    };
    let Some(recording) = LOCAL.with(|l| l.borrow().as_ref().map(|local| Arc::clone(&local.recording))) else {
        return trace;
    };
    for ring in recording.rings.lock().expect("obs recording lock").iter() {
        let mut ring = ring.lock().expect("obs ring lock");
        if ring.dropped > 0 {
            trace.dropped_by_track.push((ring.tid, ring.dropped));
        }
        trace.dropped += ring.dropped;
        ring.dropped = 0;
        trace.events.extend(ring.events.drain(..));
    }
    trace
}

/// An RAII span: emits its `End` event (at the domain's current clock)
/// when dropped. Inert when recording was disabled at construction.
#[must_use = "a span guard ends its span when dropped"]
pub struct SpanGuard {
    open: Option<(Domain, &'static str, String)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((domain, cat, name)) = self.open.take() {
            let ts = match domain {
                Domain::Virtual => virtual_now(),
                Domain::Host => host_now_ns(),
                Domain::Engine | Domain::Fleet => {
                    unreachable!("engine/fleet spans are stamped explicitly")
                }
            };
            record(domain, ts, None, Phase::End, cat, &name, 0);
        }
    }
}

fn span(domain: Domain, ts: u64, cat: &'static str, name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { open: None };
    }
    record(domain, ts, None, Phase::Begin, cat, name, 0);
    SpanGuard {
        open: Some((domain, cat, name.to_string())),
    }
}

/// Opens a virtual-cycle span at the current cursor; the guard closes
/// it at the cursor's position when dropped.
pub fn vspan(cat: &'static str, name: &str) -> SpanGuard {
    span(Domain::Virtual, virtual_now(), cat, name)
}

/// Opens a host-clock span now; the guard closes it when dropped.
pub fn hspan(cat: &'static str, name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { open: None };
    }
    span(Domain::Host, host_now_ns(), cat, name)
}

/// Emits a bare virtual span begin (no guard) at the current cursor —
/// for spans whose end timestamp is computed, like kernel launches
/// closed by [`vspan_end_at`].
pub fn vspan_begin(cat: &'static str, name: &str) {
    record(Domain::Virtual, virtual_now(), None, Phase::Begin, cat, name, 0);
}

/// Closes a span opened by [`vspan_begin`] at the explicit cycle `ts`.
pub fn vspan_end_at(ts: u64, cat: &'static str, name: &str) {
    record(Domain::Virtual, ts, None, Phase::End, cat, name, 0);
}

/// Counter sample at the current virtual cursor.
pub fn vcounter(cat: &'static str, name: &str, value: i64) {
    record(Domain::Virtual, virtual_now(), None, Phase::Counter, cat, name, value);
}

/// Counter sample at an explicit virtual cycle (mid-launch gauges).
pub fn vcounter_at(ts: u64, cat: &'static str, name: &str, value: i64) {
    record(Domain::Virtual, ts, None, Phase::Counter, cat, name, value);
}

/// Instant marker at the current virtual cursor.
pub fn vinstant(cat: &'static str, name: &str) {
    record(Domain::Virtual, virtual_now(), None, Phase::Instant, cat, name, 0);
}

/// Host-clock counter sample (store hit totals, queue depths).
pub fn hcounter(cat: &'static str, name: &str, value: i64) {
    if !is_enabled() {
        return;
    }
    record(Domain::Host, host_now_ns(), None, Phase::Counter, cat, name, value);
}

/// Host-clock instant marker.
pub fn hinstant(cat: &'static str, name: &str) {
    if !is_enabled() {
        return;
    }
    record(Domain::Host, host_now_ns(), None, Phase::Instant, cat, name, 0);
}

/// An event at explicit time `ts` on logical track `tid` — the serve
/// engine's device and queue tracks ([`Domain::Engine`]) and the
/// fleet's per-pool tracks ([`Domain::Fleet`]). `value` is the counter
/// sample for [`Phase::Counter`] and the async id for
/// [`Phase::AsyncBegin`]/[`Phase::AsyncEnd`]. Inlined so the engines'
/// per-request call sites pay only the gate when disabled.
#[inline]
pub fn track_event_at(domain: Domain, ts: u64, tid: u32, phase: Phase, cat: &'static str, name: &str, value: i64) {
    if is_enabled() {
        record(domain, ts, Some(tid), phase, cat, name, value);
    }
}

/// A complete span `[begin_ts, end_ts]` on logical track `tid`,
/// emitted as a B/E pair.
pub fn track_span_at(domain: Domain, begin_ts: u64, end_ts: u64, tid: u32, cat: &'static str, name: &str) {
    track_event_at(domain, begin_ts, tid, Phase::Begin, cat, name, 0);
    track_event_at(domain, end_ts, tid, Phase::End, cat, name, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Barrier;

    #[test]
    fn disabled_recording_is_silent() {
        {
            let _s = vspan("test", "ignored");
            vcounter("test", "ignored", 1);
            advance_virtual(10);
        }
        assert!(drain().is_empty(), "no recording, nothing to drain");
        enable(64);
        disable();
        let _s = vspan("test", "ignored");
        vinstant("test", "ignored");
        assert!(current_recording().is_none(), "a disarmed thread hands nothing on");
        assert!(drain().is_empty());
    }

    #[test]
    fn rings_drop_oldest_and_count() {
        enable(4);
        for i in 0..6 {
            vcounter("test", "n", i);
        }
        disable();
        let trace = drain();
        // Newest events win: the first two samples were dropped, and the
        // drop is attributed to this thread's ring, track 1.
        let values: Vec<i64> = trace.events.iter().map(|e| e.value).collect();
        assert_eq!(values, [2, 3, 4, 5]);
        assert_eq!(trace.dropped, 2);
        assert_eq!(trace.dropped_by_track, [(1, 2)]);
        // And it shows up in the rendered summary.
        let summary = trace.text_summary();
        assert!(
            summary.contains("track 1: ") && summary.contains("events dropped"),
            "{summary}"
        );
    }

    #[test]
    fn guards_nest_and_advance_virtual_time() {
        enable(64);
        {
            let _outer = vspan("test.outer", "o");
            advance_virtual(100);
            {
                let _inner = vspan("test.inner", "i");
                advance_virtual(40);
            }
            advance_virtual(10);
        }
        let trace = drain();
        trace.check_nesting().unwrap();
        assert_eq!(trace.span_cycles("test.outer"), 150);
        assert_eq!(trace.span_cycles("test.inner"), 40);
        assert_eq!(virtual_now(), 150);
        disable();
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let run = || {
            enable(256);
            let span = vspan("test.run", "body");
            advance_virtual(42);
            vcounter("test.run", "samples", 3);
            vinstant("test.run", "mark");
            drop(span);
            disable();
            drain()
        };
        let first = run();
        let second = run();
        assert_eq!(first.chrome_json(), second.chrome_json());
        assert_eq!(first.events.len(), 4);
    }

    #[test]
    fn recordings_on_two_threads_never_mix() {
        let barrier = Barrier::new(2);
        let trace_one = |name: &'static str| {
            enable(64);
            barrier.wait();
            vinstant("test.mix", name);
            barrier.wait();
            let trace = drain();
            disable();
            trace
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| trace_one("a"));
            let b = s.spawn(|| trace_one("b"));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (trace, name) in [(a, "a"), (b, "b")] {
            assert_eq!(trace.events.len(), 1, "{name}: {:?}", trace.events);
            assert_eq!((trace.events[0].tid, trace.events[0].name.as_str()), (1, name));
        }
    }

    #[test]
    fn joined_threads_record_on_their_own_tracks() {
        enable(64);
        vinstant("test.join", "owner");
        let recording = current_recording().expect("recording");
        std::thread::scope(|s| {
            for _ in 0..2 {
                let recording = recording.clone();
                s.spawn(move || {
                    recording.join();
                    vinstant("test.join", "worker");
                });
            }
            // A thread that did not join records nothing here.
            s.spawn(|| vinstant("test.join", "stranger"));
        });
        disable();
        let trace = drain();
        let tids: BTreeSet<u32> = trace.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, BTreeSet::from([1, 2, 3]));
        let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["owner", "worker", "worker"]);
    }

    #[test]
    fn engine_events_keep_their_logical_track() {
        enable(64);
        track_span_at(Domain::Engine, 5, 900, 2, "test.batch", "b0");
        track_event_at(Domain::Engine, 6, 2, Phase::Counter, "test.queue", "depth", 3);
        track_event_at(Domain::Engine, 1, 2, Phase::AsyncBegin, "test.req", "r", 17);
        track_event_at(Domain::Engine, 9, 2, Phase::AsyncEnd, "test.req", "r", 17);
        let trace = drain();
        trace.check_nesting().unwrap();
        assert_eq!(trace.events.len(), 5);
        assert!(trace.events.iter().all(|e| e.tid == 2 && e.domain == Domain::Engine));
        assert_eq!(trace.span_cycles("test.batch"), 895);
        disable();
    }
}
