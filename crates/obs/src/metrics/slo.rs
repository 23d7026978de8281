//! Rolling error budgets and multi-window burn-rate alerting.
//!
//! Follows the SRE-workbook shape: an objective ("99% of interactive
//! requests meet their latency SLO") defines an error *budget* (the
//! allowed 1%), and the *burn rate* is how many times faster than
//! budget the service is consuming it — a burn of 1.0 exactly exhausts
//! the budget over the evaluation period. Alerts fire when **both** a
//! short window and a long window exceed a threshold: the long window
//! keeps one bad window from paging, the short window makes the alert
//! reset quickly once the incident ends.
//!
//! All math is integer (parts-per-million rates, milli-burn
//! thresholds: 14400 milli = 14.4×), so evaluation is deterministic and
//! the rendered report byte-stable.

use super::windows::Windows;
use std::fmt::Write as _;

/// An SLO objective plus its burn-rate alert thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloPolicy {
    /// Objective label (a fleet class name, in practice).
    pub objective: String,
    /// Target good fraction in parts-per-million (990_000 = 99%).
    pub target_ppm: u32,
    /// Short evaluation window, in metric windows (≥ 1).
    pub short_windows: u64,
    /// Long evaluation window, in metric windows (≥ `short_windows`).
    pub long_windows: u64,
    /// Fast-burn (page) threshold in milli-burn (14_400 = 14.4×).
    pub fast_burn_milli: u64,
    /// Slow-burn (ticket) threshold in milli-burn (6_000 = 6×).
    pub slow_burn_milli: u64,
}

impl SloPolicy {
    /// The SRE-workbook default thresholds over a short/long window
    /// pair: page at 14.4× on both windows, ticket at 6× on both.
    pub fn burn_defaults(objective: &str, target_ppm: u32, short_windows: u64, long_windows: u64) -> SloPolicy {
        SloPolicy {
            objective: objective.to_string(),
            target_ppm,
            short_windows,
            long_windows,
            fast_burn_milli: 14_400,
            slow_burn_milli: 6_000,
        }
    }

    /// The error budget in parts-per-million.
    pub fn budget_ppm(&self) -> u64 {
        1_000_000u64.saturating_sub(self.target_ppm as u64)
    }

    /// Validates the policy shape.
    ///
    /// # Errors
    ///
    /// Returns a message when the target leaves no budget (or is 0),
    /// windows are zero or inverted, or thresholds are inverted.
    pub fn validate(&self) -> Result<(), String> {
        if self.target_ppm == 0 || self.target_ppm >= 1_000_000 {
            return Err(format!(
                "slo {:?}: target_ppm must be in 1..=999999, got {}",
                self.objective, self.target_ppm
            ));
        }
        if self.short_windows == 0 || self.long_windows < self.short_windows {
            return Err(format!(
                "slo {:?}: need 1 <= short_windows ({}) <= long_windows ({})",
                self.objective, self.short_windows, self.long_windows
            ));
        }
        if self.slow_burn_milli > self.fast_burn_milli {
            return Err(format!(
                "slo {:?}: slow burn {} exceeds fast burn {}",
                self.objective, self.slow_burn_milli, self.fast_burn_milli
            ));
        }
        Ok(())
    }
}

/// Alert severity: `Fast` is the page-level threshold, `Slow` the
/// ticket-level one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BurnSeverity {
    /// Ticket-level burn (sustained, slower).
    Slow,
    /// Page-level burn (budget disappearing fast).
    Fast,
}

impl BurnSeverity {
    /// Lower-case label used in reports and obs instants.
    pub fn label(self) -> &'static str {
        match self {
            BurnSeverity::Fast => "fast",
            BurnSeverity::Slow => "slow",
        }
    }
}

/// A burn-rate alert transition (raise or escalation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurnAlert {
    /// The objective that fired.
    pub objective: String,
    /// Severity entered at this window.
    pub severity: BurnSeverity,
    /// Window index the alert fired at.
    pub window: u64,
    /// Timestamp of the end of that window (exclusive), clock units.
    pub at: u64,
    /// Short-window burn in milli at fire time.
    pub short_burn_milli: u64,
    /// Long-window burn in milli at fire time.
    pub long_burn_milli: u64,
}

/// Per-window evaluation state in a [`SloReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloWindow {
    /// Window index.
    pub window: u64,
    /// Good events observed in this window alone.
    pub good: u64,
    /// Bad events observed in this window alone.
    pub bad: u64,
    /// Burn over the trailing short window, in milli.
    pub short_burn_milli: u64,
    /// Burn over the trailing long window, in milli.
    pub long_burn_milli: u64,
    /// Alert severity active at this window, if any.
    pub severity: Option<BurnSeverity>,
}

/// The evaluated SLO: totals, the per-window trail, and every alert
/// transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloReport {
    /// The policy that produced this report.
    pub policy: SloPolicy,
    /// Total good events.
    pub good: u64,
    /// Total bad events.
    pub bad: u64,
    /// Whole-run burn rate in milli (1000 = exactly on budget).
    pub overall_burn_milli: u64,
    /// Contiguous evaluation trail from first to last observed window.
    pub windows: Vec<SloWindow>,
    /// Raise/escalate transitions, in window order.
    pub alerts: Vec<BurnAlert>,
}

impl SloReport {
    /// Renders the byte-stable report block: budget line, alert lines,
    /// and the windows that were in an alert state.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.good + self.bad;
        let _ = writeln!(
            out,
            "slo {}  target {}.{:04}%  events {}  bad {}  burn {}",
            self.policy.objective,
            self.policy.target_ppm / 10_000,
            self.policy.target_ppm % 10_000,
            total,
            self.bad,
            fmt_burn(self.overall_burn_milli),
        );
        if self.alerts.is_empty() {
            let _ = writeln!(out, "  alerts: none");
        } else {
            for a in &self.alerts {
                let _ = writeln!(
                    out,
                    "  ALERT {}_burn  window {}  at {}  short {}  long {}",
                    a.severity.label(),
                    a.window,
                    a.at,
                    fmt_burn(a.short_burn_milli),
                    fmt_burn(a.long_burn_milli),
                );
            }
        }
        let alerting = self.windows.iter().filter(|w| w.severity.is_some()).count();
        let _ = writeln!(
            out,
            "  windows {}  alerting {}  (short {}w fast {}  /  long {}w slow {})",
            self.windows.len(),
            alerting,
            self.policy.short_windows,
            fmt_burn(self.policy.fast_burn_milli),
            self.policy.long_windows,
            fmt_burn(self.policy.slow_burn_milli),
        );
        out
    }
}

/// Formats a milli-burn as `N.Nx` (e.g. 14400 → `14.4x`).
pub fn fmt_burn(milli: u64) -> String {
    format!("{}.{}x", milli / 1000, (milli % 1000) / 100)
}

/// Burn rate in milli for `bad` failures out of `total` events against
/// a `budget_ppm` error budget. 1000 = consuming exactly the budget;
/// 0 when there is no traffic or no budget.
pub fn burn_milli(bad: u64, total: u64, budget_ppm: u64) -> u64 {
    if total == 0 || budget_ppm == 0 {
        return 0;
    }
    // (bad/total) / (budget_ppm/1e6) * 1000, in u128 to dodge overflow.
    let num = bad as u128 * 1_000_000u128 * 1000u128;
    let den = total as u128 * budget_ppm as u128;
    (num / den).min(u64::MAX as u128) as u64
}

/// Accumulates good/bad events into metric windows and evaluates the
/// burn-rate policy over the trail.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    policy: SloPolicy,
    window: u64,
    /// window index -> (good, bad).
    cells: Windows<(u64, u64)>,
}

impl SloMonitor {
    /// Creates a monitor over windows of `window` clock units (clamped
    /// to at least 1).
    ///
    /// # Panics
    ///
    /// Panics when the policy fails [`SloPolicy::validate`] — policies
    /// are built by code, not user input.
    pub fn new(policy: SloPolicy, window: u64) -> SloMonitor {
        policy.validate().unwrap_or_else(|e| panic!("{e}"));
        SloMonitor {
            policy,
            window: window.max(1),
            cells: Windows::new(window),
        }
    }

    /// The policy under evaluation.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Records one event at `ts`: `good` means the objective was met.
    pub fn record(&mut self, ts: u64, good: bool) {
        let cell = self.cells.at(ts, || (0, 0));
        if good {
            cell.0 = cell.0.saturating_add(1);
        } else {
            cell.1 = cell.1.saturating_add(1);
        }
    }

    /// Sum of (good, bad) over window indices `lo..=hi`.
    fn range_totals(&self, lo: u64, hi: u64) -> (u64, u64) {
        let mut good = 0u64;
        let mut bad = 0u64;
        for &(g, b) in self.cells.range(lo, hi) {
            good = good.saturating_add(g);
            bad = bad.saturating_add(b);
        }
        (good, bad)
    }

    /// Evaluates the policy over every window from the first to the
    /// last observed (empty windows burn nothing but keep the trail
    /// contiguous) and returns the report. Alerts fire on transitions:
    /// entering `Slow`, entering `Fast`, or escalating `Slow → Fast`.
    pub fn finish(&self) -> SloReport {
        let budget = self.policy.budget_ppm();
        let (mut good_total, mut bad_total) = (0u64, 0u64);
        let mut windows = Vec::new();
        let mut alerts = Vec::new();
        let mut active: Option<BurnSeverity> = None;
        if let Some((first, last)) = self.cells.span() {
            for w in first..=last {
                let (g, b) = self.cells.get(w).copied().unwrap_or((0, 0));
                good_total = good_total.saturating_add(g);
                bad_total = bad_total.saturating_add(b);
                let lo_short = w.saturating_sub(self.policy.short_windows - 1);
                let lo_long = w.saturating_sub(self.policy.long_windows - 1);
                let (sg, sb) = self.range_totals(lo_short, w);
                let (lg, lb) = self.range_totals(lo_long, w);
                let short = burn_milli(sb, sg + sb, budget);
                let long = burn_milli(lb, lg + lb, budget);
                let severity = if short >= self.policy.fast_burn_milli && long >= self.policy.fast_burn_milli {
                    Some(BurnSeverity::Fast)
                } else if short >= self.policy.slow_burn_milli && long >= self.policy.slow_burn_milli {
                    Some(BurnSeverity::Slow)
                } else {
                    None
                };
                if let Some(sev) = severity {
                    let raises = match active {
                        None => true,
                        Some(prev) => sev > prev,
                    };
                    if raises {
                        alerts.push(BurnAlert {
                            objective: self.policy.objective.clone(),
                            severity: sev,
                            window: w,
                            at: (w + 1) * self.window,
                            short_burn_milli: short,
                            long_burn_milli: long,
                        });
                    }
                }
                active = severity;
                windows.push(SloWindow {
                    window: w,
                    good: g,
                    bad: b,
                    short_burn_milli: short,
                    long_burn_milli: long,
                    severity,
                });
            }
        }
        let overall = burn_milli(bad_total, good_total + bad_total, budget);
        SloReport {
            policy: self.policy.clone(),
            good: good_total,
            bad: bad_total,
            overall_burn_milli: overall,
            windows,
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SloPolicy {
        // 99% target, short 1 window, long 4 windows.
        SloPolicy::burn_defaults("interactive", 990_000, 1, 4)
    }

    #[test]
    fn burn_math_is_exact() {
        // 1% budget, 1% errors -> burn exactly 1.0x.
        assert_eq!(burn_milli(1, 100, 10_000), 1000);
        // 14.4% errors on a 1% budget -> 14.4x.
        assert_eq!(burn_milli(144, 1000, 10_000), 14_400);
        assert_eq!(burn_milli(0, 100, 10_000), 0);
        assert_eq!(burn_milli(0, 0, 10_000), 0);
        // Huge counts don't overflow (u64::MAX/2 bad of u64::MAX-1
        // total is exactly half the traffic on a 50% budget).
        assert_eq!(burn_milli(u64::MAX / 2, u64::MAX - 1, 500_000), 1000);
        assert_eq!(fmt_burn(14_400), "14.4x");
        assert_eq!(fmt_burn(999), "0.9x");
    }

    #[test]
    fn quiet_service_never_alerts() {
        let mut m = SloMonitor::new(policy(), 100);
        for i in 0..1000u64 {
            m.record(i * 3, true);
        }
        let r = m.finish();
        assert!(r.alerts.is_empty());
        assert_eq!(r.bad, 0);
        assert_eq!(r.overall_burn_milli, 0);
        assert!(r.render().contains("alerts: none"));
    }

    #[test]
    fn sustained_burn_fires_once_and_escalates_once() {
        let mut m = SloMonitor::new(policy(), 100);
        // Windows 0..4: healthy. Windows 4..8: 50% errors (burn 50x on
        // a 1% budget) — the long window lags the short one.
        for w in 0..8u64 {
            for i in 0..40u64 {
                let ts = w * 100 + i * 2;
                let good = w < 4 || i % 2 == 0;
                m.record(ts, good);
            }
        }
        let r = m.finish();
        // Short window saturates at w4; long window (4w trailing)
        // crosses fast only later. Exactly one Fast raise, no flapping
        // re-raises while the burn persists.
        let fast: Vec<&BurnAlert> = r.alerts.iter().filter(|a| a.severity == BurnSeverity::Fast).collect();
        assert_eq!(fast.len(), 1, "{:?}", r.alerts);
        assert!(r.windows.iter().any(|w| w.severity == Some(BurnSeverity::Fast)));
        assert!(r.render().contains("ALERT fast_burn"), "{}", r.render());
        // Alert timestamps sit on window boundaries.
        assert_eq!(fast[0].at % 100, 0);
    }

    #[test]
    fn one_bad_window_does_not_page() {
        let mut m = SloMonitor::new(policy(), 100);
        // 8 windows of 40 good each; window 3 adds 10 bad (20% errors
        // -> short burn 20x, but the 4-window long burn is ~5.3x, under
        // the 6x slow threshold).
        for w in 0..8u64 {
            for i in 0..40u64 {
                m.record(w * 100 + i * 2, true);
            }
        }
        for i in 0..10u64 {
            m.record(300 + i, false);
        }
        let r = m.finish();
        assert!(r.alerts.is_empty(), "{:?}", r.alerts);
    }

    #[test]
    fn empty_windows_keep_the_trail_contiguous() {
        let mut m = SloMonitor::new(policy(), 100);
        m.record(50, true);
        m.record(850, false);
        let r = m.finish();
        assert_eq!(r.windows.len(), 9, "windows 0..=8 inclusive");
        assert!(r.windows[3].good == 0 && r.windows[3].bad == 0);
        // The empty middle windows report zero burn.
        assert_eq!(r.windows[4].short_burn_milli, 0);
    }

    #[test]
    fn policy_validation_rejects_nonsense() {
        let mut p = policy();
        p.target_ppm = 1_000_000;
        assert!(p.validate().is_err());
        let mut p = policy();
        p.short_windows = 5;
        assert!(p.validate().is_err(), "short > long");
        let mut p = policy();
        p.slow_burn_milli = 20_000;
        assert!(p.validate().is_err(), "slow > fast");
        assert!(policy().validate().is_ok());
    }
}
