//! Deterministic tracing and metrics for the Tango stack.
//!
//! The paper's whole contribution is *characterization* — per-layer
//! execution time, stall breakdowns, cache behaviour — yet a stack that
//! only prints final numbers is opaque at runtime. This crate is the
//! shared observability substrate for `tango-sim`, `tango-harness`, and
//! `tango-serve`: spans, counters, and gauges recorded into bounded
//! per-thread ring buffers (flight recorders) and exported as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`) or a
//! plain-text hierarchical time summary.
//!
//! # Clock domains
//!
//! Events carry one of three clocks, kept apart so virtual and wall
//! time never mix on one timeline:
//!
//! * [`Domain::Virtual`] — simulator cycles. Each thread owns a
//!   monotonic *virtual cursor* ([`virtual_now`]); instrumented code
//!   advances it ([`advance_virtual`]) as launches retire, so kernel
//!   launches and per-layer spans stack into a cycle-exact timeline.
//!   Virtual events are **byte-deterministic**: the same simulation
//!   produces the same event stream, bit for bit.
//! * [`Domain::Engine`] — the serving engine's own virtual clock.
//!   The discrete-event engine stamps events explicitly with its `now`,
//!   so a replayed arrival trace yields a deterministic timeline too.
//! * [`Domain::Host`] — monotonic nanoseconds since trace start, for
//!   host-side work (suite scheduling, store I/O, live-service
//!   batches). Host events are honest wall-clock and therefore *not*
//!   run-to-run stable.
//!
//! # Cost model
//!
//! Recording is **off by default and free when disabled**: every
//! recording call starts with one thread-local load and a branch, and
//! no allocation, formatting, or locking happens unless tracing was
//! enabled ([`enable`], usually via the `TANGO_TRACE` environment
//! variable — see [`env`]). A recording belongs to the thread that
//! enabled it and to the threads that thread hands it to
//! ([`current_recording`]); [`drain`] collects exactly those threads'
//! events. Each of them appends to its own bounded ring
//! (`TANGO_TRACE_CAP` sets the bound); the newest events win, and the
//! drop count is reported so a truncated trace is never mistaken for a
//! complete one.
//!
//! # Example
//!
//! ```
//! tango_obs::enable(1024);
//! {
//!     let _outer = tango_obs::vspan("demo", "outer");
//!     tango_obs::advance_virtual(10);
//!     let _inner = tango_obs::vspan("demo", "inner");
//!     tango_obs::advance_virtual(5);
//!     tango_obs::vcounter("demo", "items", 2);
//! }
//! let trace = tango_obs::drain();
//! assert_eq!(trace.dropped, 0);
//! trace.check_nesting().unwrap();
//! assert_eq!(trace.span_cycles("demo"), 15 + 5);
//! tango_obs::json::validate(&trace.chrome_json()).unwrap();
//! tango_obs::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod env;
mod event;
pub mod json;
pub mod metrics;
mod recorder;
mod summary;
mod trace;

pub use env::{write_chrome_file, DEFAULT_EVENT_CAP};
pub use event::{Domain, Event, Phase};
pub use recorder::{
    advance_virtual, current_recording, disable, drain, enable, hcounter, hinstant, host_now_ns, hspan, is_enabled,
    track_event_at, track_span_at, vcounter, vcounter_at, vinstant, virtual_now, vspan, vspan_begin, vspan_end_at,
    RecordingHandle, SpanGuard,
};
pub use trace::Trace;
