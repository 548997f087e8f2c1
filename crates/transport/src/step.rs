//! The run-loop skeleton the three transport engines share.
//!
//! `TcpSim::run` (fluid fair share), `rate::run_rate` (explicit queue) and
//! `BondedSim::run` (DWRR striping) each keep their own step physics, but
//! they honour one fault-plane contract and report through one goodput
//! ledger. That contract lives here, once:
//!
//! * [`begin`] opens a step: it charges the event budget, advances the
//!   telemetry clock and samples the RTT-spike, loss-burst and stall-window
//!   faults at the step's local time;
//! * [`Rto`] is the RFC 6298 stall machine: a retransmission timer armed at
//!   `max(2·RTT, 1 s)` when dead air begins, doubled on every backoff, and a
//!   connection reset on the fifth backoff of a stall window. It records
//!   the telemetry, recovery events and the `rto-bounds` guard; the caller
//!   only collapses or rebuilds its flows;
//! * [`Ledger`] partitions delivered megabits into per-second goodput
//!   samples, guards their conservation, and flushes a partial final
//!   second as a rate over its real window;
//! * [`loss_repair`] records a loss under a loss burst as a fast
//!   retransmit.
//!
//! With no fault plane installed [`begin`] returns unit multipliers, so the
//! engines' arithmetic is bit-identical to a plane-free build.

use fiveg_simcore::faults::{self, FaultKind};
use fiveg_simcore::recovery::{self, RecoveryKind};
use fiveg_simcore::{budget, guard, telemetry};

/// Opens the step at local time `t`. Returns `(rtt_mult, loss_mult,
/// stalled)`: RTT spikes scale the path RTT by `1 + magnitude`, loss
/// bursts scale the per-packet loss rate by the window's magnitude, and a
/// stall window freezes delivery for the step.
pub(crate) fn begin(t: f64) -> (f64, f64, bool) {
    budget::charge(1);
    telemetry::clock(t);
    if faults::enabled() {
        (
            faults::magnitude(FaultKind::RttSpike, t).map_or(1.0, |m| 1.0 + m.max(0.0)),
            faults::magnitude(FaultKind::LossBurst, t).map_or(1.0, |m| m.max(1.0)),
            faults::is_active(FaultKind::StallWindow, t),
        )
    } else {
        (1.0, 1.0, false)
    }
}

/// Records a loss drawn at `t` as a fast-retransmit recovery action when a
/// loss-burst window covers `t`. Recording changes no simulation state.
pub(crate) fn loss_repair(t: f64, rtt_s: f64, note: impl FnOnce() -> String) {
    if faults::is_active(FaultKind::LossBurst, t) {
        recovery::record(RecoveryKind::TcpFastRetransmit, t, rtt_s, 0.0, note);
    }
}

/// Backoffs in one stall window before the connections are torn down.
const RESET_AFTER_BACKOFFS: u32 = 5;

/// What the retransmission timer did on one stalled step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timeout {
    /// The timer has not expired.
    Pending,
    /// The timer fired: collapse every flow.
    Backoff,
    /// The timer fired and the retry budget is spent: collapse every flow,
    /// then re-establish it from its initial state.
    Reset,
}

/// The RFC 6298 retransmission-timer machine across stall windows.
pub(crate) struct Rto {
    floor_s: f64,
    /// Recovery-note prefix naming the transport (`""` or `"bonded "`).
    prefix: &'static str,
    /// What a backoff collapses, for the recovery note.
    collapsed: &'static str,
    /// Start of the current stall window, `None` while the path is live.
    since: Option<f64>,
    rto_s: f64,
    next_at: f64,
    backoffs: u32,
    did_reset: bool,
}

impl Rto {
    /// A disarmed timer for a path whose base RTT is `rtt_s`.
    pub(crate) fn new(rtt_s: f64, prefix: &'static str, collapsed: &'static str) -> Rto {
        Rto {
            floor_s: (2.0 * rtt_s).max(1.0),
            prefix,
            collapsed,
            since: None,
            rto_s: 0.0,
            next_at: 0.0,
            backoffs: 0,
            did_reset: false,
        }
    }

    /// Advances the timer through a stalled step at `t`, arming it at the
    /// floor when dead air begins.
    pub(crate) fn on_stall(&mut self, t: f64) -> Timeout {
        let since = match self.since {
            Some(s) => s,
            None => {
                self.rto_s = self.floor_s;
                self.next_at = t + self.rto_s;
                self.backoffs = 0;
                self.did_reset = false;
                self.since = Some(t);
                t
            }
        };
        if t < self.next_at {
            return Timeout::Pending;
        }
        self.backoffs += 1;
        let (rto_s, backoffs) = (self.rto_s, self.backoffs);
        let (prefix, collapsed) = (self.prefix, self.collapsed);
        telemetry::count("transport/rto", 1);
        telemetry::observe("transport/rto_backoff_s", rto_s);
        recovery::record(RecoveryKind::TcpRto, t, rto_s, t - since, || {
            format!("{prefix}backoff #{backoffs}, {collapsed} collapsed")
        });
        let fired = if backoffs >= RESET_AFTER_BACKOFFS && !self.did_reset {
            self.did_reset = true;
            telemetry::count("transport/conn_reset", 1);
            recovery::record(RecoveryKind::TcpConnReset, t, rto_s, t - since, || {
                format!("{prefix}reset after {backoffs} backoffs")
            });
            Timeout::Reset
        } else {
            Timeout::Backoff
        };
        self.rto_s *= 2.0;
        self.next_at = t + self.rto_s;
        // The backoff sequence only ever doubles from the floor; a
        // shrinking or non-finite RTO would let a stall window fire timers
        // unboundedly often.
        let next_rto_s = self.rto_s;
        guard::check(
            "transport",
            "rto-bounds",
            next_rto_s.is_finite() && next_rto_s >= self.floor_s,
            t,
            || format!("RTO {next_rto_s}s below the floor after backoff #{backoffs}"),
        );
        fired
    }

    /// Marks the path live again; the next stall re-arms from the floor.
    pub(crate) fn clear(&mut self) {
        self.since = None;
    }
}

/// The per-second goodput ledger.
pub(crate) struct Ledger {
    delivered_mb: f64,
    per_second: Vec<f64>,
    second_acc: f64,
    next_second: f64,
    /// Start of the second currently accumulating.
    second_start: f64,
}

impl Ledger {
    pub(crate) fn new() -> Ledger {
        Ledger {
            delivered_mb: 0.0,
            per_second: Vec::new(),
            second_acc: 0.0,
            next_second: 1.0,
            second_start: 0.0,
        }
    }

    /// Books `mb` megabits delivered in the current step.
    pub(crate) fn add(&mut self, mb: f64) {
        self.delivered_mb += mb;
        self.second_acc += mb;
    }

    /// Closes the step ending at `t`; true when it completed a second.
    pub(crate) fn tick(&mut self, t: f64) -> bool {
        if t < self.next_second {
            return false;
        }
        self.per_second.push(self.second_acc);
        self.second_acc = 0.0;
        self.next_second += 1.0;
        self.second_start = t;
        true
    }

    /// Closes a run that ended at `t` after `duration_s` of simulated
    /// time. Returns `(mean_mbps, per_second_mbps)`.
    pub(crate) fn finish(mut self, t: f64, duration_s: f64) -> (f64, Vec<f64>) {
        let delivered_mb = self.delivered_mb;
        if guard::enabled() {
            // Conservation: the per-second ledger re-partitions exactly the
            // megabits the running total delivered (modulo float
            // re-association across partial sums).
            let ledger: f64 = self.per_second.iter().sum::<f64>() + self.second_acc;
            guard::check(
                "transport",
                "bytes-conserved",
                (ledger - delivered_mb).abs() <= 1e-6 * delivered_mb.abs() + 1e-9,
                duration_s,
                || format!("per-second ledger {ledger} vs delivered {delivered_mb}"),
            );
            guard::non_negative("transport", "goodput", delivered_mb, 0.0, duration_s);
        }
        // Flush the final partial second: when `duration_s` is not an
        // integer number of seconds the tail accumulator still holds real
        // deliveries, and dropping it would bias the per-second goodput
        // CDFs.
        // The sample is normalized by its actual window so it is a rate
        // comparable to the full-second samples. (For integer durations
        // the accumulator is exactly zero here and nothing changes.)
        let tail_s = t - self.second_start;
        if self.second_acc > 0.0 && tail_s > 0.0 {
            self.per_second.push(self.second_acc / tail_s);
        }
        telemetry::gauge("transport/mean_mbps", delivered_mb / duration_s);
        (delivered_mb / duration_s, self.per_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::attempt::{self, AttemptSpec};
    use fiveg_simcore::faults::{FaultScenario, FaultSchedule};
    use fiveg_simcore::guard::GuardPolicy;

    /// An attempt context whose windowless schedule turns the recovery
    /// collector on.
    fn recovery_collector() -> attempt::AttemptGuard {
        attempt::install(AttemptSpec {
            schedule: Some(FaultSchedule::generate(1, &FaultScenario::quiet())),
            ..AttemptSpec::default()
        })
    }

    /// Drives a timer through one stall window of `steps` 10 ms steps
    /// starting at `t0`; returns each non-pending outcome with its time.
    fn stall(rto: &mut Rto, t0: f64, steps: usize) -> Vec<(f64, Timeout)> {
        (0..steps)
            .map(|k| t0 + k as f64 * 0.01)
            .filter_map(|t| match rto.on_stall(t) {
                Timeout::Pending => None,
                fired => Some((t, fired)),
            })
            .collect()
    }

    #[test]
    fn rto_doubles_from_the_floor_and_resets_once_per_stall() {
        let _rec = recovery_collector();
        // A 20 ms path sits under the 1 s floor.
        let mut rto = Rto::new(0.020, "", "windows");
        let fired = stall(&mut rto, 0.0, 7000);
        let times: Vec<f64> = fired.iter().map(|(t, _)| *t).collect();
        // Fires at 1, 1+2, 3+4, 7+8, 15+16, 31+32 seconds (to the step).
        let expected = [1.0, 3.0, 7.0, 15.0, 31.0, 63.0];
        assert_eq!(times.len(), expected.len(), "fired at {times:?}");
        for (t, e) in times.iter().zip(expected) {
            assert!((t - e).abs() < 0.02, "fired at {times:?}");
        }
        let kinds: Vec<Timeout> = fired.iter().map(|(_, k)| *k).collect();
        assert_eq!(
            kinds,
            [
                Timeout::Backoff,
                Timeout::Backoff,
                Timeout::Backoff,
                Timeout::Backoff,
                Timeout::Reset,
                Timeout::Backoff,
            ]
        );
        let events = attempt::drain().recovery;
        assert_eq!(events.len(), 7, "six RTOs plus one reset");
        assert_eq!(events[0].detail, "backoff #1, windows collapsed");
        assert_eq!(events[5].kind, RecoveryKind::TcpConnReset);
        assert_eq!(events[5].detail, "reset after 5 backoffs");
        assert_eq!(events[6].detail, "backoff #6, windows collapsed");

        // A fresh stall re-arms from the floor and may reset again.
        rto.clear();
        let again = stall(&mut rto, 100.0, 3200);
        assert!((again[0].0 - 101.0).abs() < 0.02, "re-armed: {again:?}");
        assert_eq!(again[4].1, Timeout::Reset);
        assert_eq!(again.len(), 5);
    }

    #[test]
    fn rto_floor_tracks_long_paths_and_notes_carry_the_prefix() {
        let _rec = recovery_collector();
        // 2·RTT beats the 1 s floor on a 700 ms path.
        let mut rto = Rto::new(0.7, "bonded ", "pacing");
        assert_eq!(rto.on_stall(0.0), Timeout::Pending);
        assert_eq!(rto.on_stall(1.39), Timeout::Pending);
        assert_eq!(rto.on_stall(1.4), Timeout::Backoff);
        assert_eq!(rto.on_stall(4.19), Timeout::Pending);
        assert_eq!(rto.on_stall(4.2), Timeout::Backoff);
        let events = attempt::drain().recovery;
        assert_eq!(events[1].detail, "bonded backoff #2, pacing collapsed");
        assert_eq!(events[1].outage_s, 4.2);
        assert_eq!(events[1].detect_s, 2.8);
    }

    #[test]
    fn ledger_flushes_a_partial_tail_as_a_rate() {
        let _guards = attempt::install(AttemptSpec {
            guards: Some(GuardPolicy::Record),
            ..AttemptSpec::default()
        });
        // 2.5 s at 100 Mbps in 10 ms steps.
        let mut ledger = Ledger::new();
        let mut closed = 0;
        for k in 1..=250 {
            ledger.add(100.0 * 0.01);
            closed += usize::from(ledger.tick(k as f64 / 100.0));
        }
        assert_eq!(closed, 2);
        let (mean, per_second) = ledger.finish(2.5, 2.5);
        assert_eq!(per_second.len(), 3, "{per_second:?}");
        for mbps in &per_second {
            assert!((mbps - 100.0).abs() < 1e-6, "{per_second:?}");
        }
        assert!((mean - 100.0).abs() < 1e-6);
        let guards = attempt::drain().guards;
        assert!(guards.is_clean(), "{guards:?}");
        if guard::compiled() {
            assert!(guards.checks > 0, "the conservation guard ran");
        }
    }

    #[test]
    fn ledger_adds_no_tail_for_integer_durations() {
        let mut ledger = Ledger::new();
        for k in 1..=300 {
            ledger.add(0.5);
            ledger.tick(k as f64 / 100.0);
        }
        let (_, per_second) = ledger.finish(3.0, 3.0);
        assert_eq!(per_second.len(), 3, "{per_second:?}");
    }
}
