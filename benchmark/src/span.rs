//! Spans around the calls into each crate, recorded from the benchmark's
//! own files and kept in memory until the run ends.
//!
//! A span has a name (`<crate>.<call>`), a start and an end on the host
//! clock, the span that caused it and the id of the rep it belongs to.
//! Counts of work (requests, launches, simulated cycles) are recorded at
//! the same boundaries under the same names. With tracing off
//! [`Tracer::span`] is one branch around the call.

use std::io::Write;
use std::time::Instant;

/// One timed call into a crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same phase.
    pub parent: Option<usize>,
    /// Rep the span belongs to; 0 is set-up (and the tour).
    pub rep: u32,
}

/// Work done at a span boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub key: &'static str,
    pub rep: u32,
    pub value: f64,
}

/// Records spans and counts while `on`.
pub struct Tracer {
    on: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<Count>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording; a traced run times its untraced reps with it off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Spans and counts recorded from here on belong to `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` are its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `value` units of work under `key` to the current rep.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if self.on {
            self.counts.push(Count {
                key,
                rep: self.rep,
                value,
            });
        }
    }

    /// Hands over everything recorded so far and starts an empty phase.
    pub fn take_phase(&mut self) -> Phase {
        assert!(self.open.is_empty(), "a phase ends between spans");
        Phase {
            spans: std::mem::take(&mut self.spans),
            counts: std::mem::take(&mut self.counts),
        }
    }
}

/// The spans and counts of one part of a run (the workload's reps, or
/// the tour).
#[derive(Debug, Default)]
pub struct Phase {
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

/// Whether `name` is `stem` or one of its sub-names (`stem.x`).
fn under(name: &str, stem: &str) -> bool {
    name.strip_prefix(stem)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// Of `items` (rep, value), those of timed reps when there are any and
/// those of set-up (rep 0) otherwise, summed and divided by the number
/// of reps they occur in.
fn per_rep(items: Vec<(u32, f64)>) -> f64 {
    let timed = items.iter().any(|&(rep, _)| rep > 0);
    let kept: Vec<(u32, f64)> = items
        .into_iter()
        .filter(|&(rep, _)| !timed || rep > 0)
        .collect();
    let mut reps: Vec<u32> = kept.iter().map(|&(rep, _)| rep).collect();
    reps.sort_unstable();
    reps.dedup();
    kept.iter().map(|&(_, v)| v).sum::<f64>() / reps.len().max(1) as f64
}

impl Phase {
    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Whether any span or count is recorded under `stem`.
    pub fn has(&self, stem: &str) -> bool {
        self.spans.iter().any(|s| under(s.name, stem))
            || self.counts.iter().any(|c| under(c.key, stem))
    }

    fn spans_under<'a>(&'a self, stem: &'a str) -> impl Iterator<Item = (usize, &'a Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| under(s.name, stem))
    }

    /// Busy seconds per rep under `stem`: the summed self time of its
    /// spans.
    pub fn busy_s(&self, stem: &str) -> f64 {
        let own = self.self_ns();
        per_rep(
            self.spans_under(stem)
                .map(|(i, s)| (s.rep, own[i] as f64 / 1e9))
                .collect(),
        )
    }

    /// Calls per rep under `stem`.
    pub fn calls(&self, stem: &str) -> f64 {
        per_rep(self.spans_under(stem).map(|(_, s)| (s.rep, 1.0)).collect())
    }

    /// Work per rep recorded under exactly `key`.
    pub fn count(&self, key: &str) -> f64 {
        per_rep(
            self.counts
                .iter()
                .filter(|c| c.key == key)
                .map(|c| (c.rep, c.value))
                .collect(),
        )
    }

    /// Durations in microseconds of every span named exactly `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Writes the span table, one span a line.
    pub fn write_tsv(&self, phase: &str, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{phase}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.rep, s.name, s.start_ns, s.end_ns, own[i]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        rep: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let phase = Phase {
            spans: vec![
                span("core.simulate_run", 0, 100, None, 1),
                span("nets.build", 10, 30, Some(0), 1),
                span("sim.infer", 30, 95, Some(0), 1),
                span("sim.inner", 40, 50, Some(2), 1),
            ],
            counts: vec![],
        };
        assert_eq!(phase.self_ns(), vec![15, 20, 55, 10]);
    }

    #[test]
    fn busy_and_counts_are_per_rep() {
        let phase = Phase {
            spans: vec![
                span("fleet.run_fleet.round_robin", 0, 2_000_000_000, None, 1),
                span("fleet.run_fleet.cost_aware", 0, 1_000_000_000, None, 1),
                span("fleet.run_fleet.round_robin", 0, 3_000_000_000, None, 2),
                span("fleet.run_fleet_metered", 0, 9_000_000_000, None, 2),
            ],
            counts: vec![
                Count {
                    key: "fleet.run_fleet.requests",
                    rep: 1,
                    value: 10.0,
                },
                Count {
                    key: "fleet.run_fleet.requests",
                    rep: 2,
                    value: 30.0,
                },
            ],
        };
        assert_eq!(phase.busy_s("fleet.run_fleet"), 3.0);
        assert_eq!(phase.busy_s("fleet.run_fleet.round_robin"), 2.5);
        assert_eq!(phase.calls("fleet.run_fleet"), 1.5);
        assert_eq!(phase.count("fleet.run_fleet.requests"), 20.0);
        assert!(phase.has("fleet.run_fleet"));
        assert!(!phase.has("fleet.run"));
        assert_eq!(phase.busy_s("serve.run_trace"), 0.0);
    }

    #[test]
    fn set_up_spans_count_only_where_no_rep_has_any() {
        let phase = Phase {
            spans: vec![
                span("nets.build", 0, 4_000_000_000, None, 0),
                span("nets.build", 0, 1_000_000_000, None, 1),
                span("nets.build", 0, 3_000_000_000, None, 2),
                span("sim.memo.record", 0, 5_000_000_000, None, 0),
            ],
            counts: vec![],
        };
        assert_eq!(phase.busy_s("nets.build"), 2.0);
        assert_eq!(phase.calls("nets.build"), 1.0);
        assert_eq!(phase.busy_s("sim.memo.record"), 5.0);
    }

    #[test]
    fn tracer_links_children_to_parents_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let v = t.span("a", |t| {
            t.span("b", |t| {
                t.count("b.work", 2.0);
                7
            })
        });
        assert_eq!(v, 7);
        let phase = t.take_phase();
        assert_eq!(phase.spans.len(), 2);
        assert_eq!(phase.spans[0].parent, None);
        assert_eq!(phase.spans[1].parent, Some(0));
        assert_eq!(phase.spans[1].rep, 3);
        assert!(phase.spans[0].end_ns >= phase.spans[1].end_ns);
        assert_eq!(phase.count("b.work"), 2.0);

        let mut off = Tracer::new(false);
        off.span("a", |t| t.count("x", 1.0));
        let phase = off.take_phase();
        assert!(phase.spans.is_empty() && phase.counts.is_empty());
    }
}
