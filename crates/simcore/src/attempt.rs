//! The attempt context: the only per-attempt thread-local state.
//!
//! A supervised attempt runs on a fresh thread with its own ambient world:
//! the fault schedule, the recovery, telemetry and guard collectors, the
//! event budget and the cancellation token. [`install`] sets all of it from
//! one [`AttemptSpec`], dropping the returned [`AttemptGuard`] tears all of
//! it down (on unwind too, so a pooled worker never inherits an attempt),
//! and [`drain`] takes what the attempt recorded as one [`Drained`]. The
//! hooks in [`crate::faults`], [`crate::recovery`], [`crate::telemetry`],
//! [`crate::guard`], [`crate::budget`] and [`crate::cancel`] read this
//! state; those modules keep none of their own.
//!
//! The state is split by temperature. `HOT` holds the on-flags, the budget
//! counters and the cancel countdown as plain `Cell`s in one
//! `const`-initialised thread-local with no destructor, so a hook's
//! disarmed path is one flag load and `budget::charge` reads both of its
//! planes in one lookup. `COLD` holds the schedule, the collectors and the
//! token, each in its own `RefCell` so a hook running inside one
//! collector's borrow can still consult another plane.
//!
//! What the supervised runner relies on: the fault plane is exactly the
//! schedule handed in (a pure function of `(attempt_seed, scenario)`); the
//! recovery collector is on exactly when a schedule is, so fault-free
//! campaigns report zero recovery events by construction; telemetry and
//! guards are on only when asked for and never perturb simulation state,
//! so observed, guarded and plain campaigns are byte-identical.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::budget;
use crate::cancel::{CancelToken, POLL_INTERVAL};
use crate::faults::FaultSchedule;
use crate::guard::{AttemptGuards, GuardPolicy};
use crate::recovery::RecoveryEvent;
use crate::telemetry::AttemptTelemetry;

/// Everything one attempt installs.
#[derive(Debug)]
pub struct AttemptSpec {
    /// The fault plane (`None`: fault-free; a shrunk, hand-edited
    /// reproducer schedule installs exactly like a generated one). A
    /// schedule also turns the recovery collector on.
    pub schedule: Option<FaultSchedule>,
    /// The event budget; `u64::MAX` leaves it unlimited.
    pub event_budget: u64,
    /// Turns the telemetry collector on.
    pub telemetry: bool,
    /// Turns the invariant guard collector on under this policy.
    pub guards: Option<GuardPolicy>,
    /// The cancellation token the supervisor kills; always armed.
    pub cancel: Arc<CancelToken>,
}

impl Default for AttemptSpec {
    /// No faults, unlimited budget, telemetry and guards off, and a fresh
    /// token nobody else holds.
    fn default() -> Self {
        AttemptSpec {
            schedule: None,
            event_budget: u64::MAX,
            telemetry: false,
            guards: None,
            cancel: Arc::new(CancelToken::new()),
        }
    }
}

/// Everything [`drain`] takes from the attempt context.
#[derive(Debug, Default)]
pub struct Drained {
    /// Recovery events (empty without a schedule).
    pub recovery: Vec<RecoveryEvent>,
    /// Events charged against the budget (0 without a budget).
    pub events: u64,
    /// Telemetry, when the attempt asked for it.
    pub telemetry: Option<AttemptTelemetry>,
    /// Invariant-guard records (empty without a policy).
    pub guards: AttemptGuards,
}

/// The hot half of the attempt context: flags and counters every hook
/// reads on its fast path.
pub(crate) struct Hot {
    pub(crate) faults: Cell<bool>,
    pub(crate) recovery: Cell<bool>,
    #[cfg(feature = "telemetry")]
    pub(crate) telemetry: Cell<bool>,
    #[cfg(feature = "guards")]
    pub(crate) guards: Cell<bool>,
    /// Remaining events; `u64::MAX` means "no budget armed".
    pub(crate) budget_left: Cell<u64>,
    /// The amount armed, so `budget::consumed` can report events charged
    /// so far; `u64::MAX` means "no budget armed". Never read on the
    /// `charge` hot path.
    pub(crate) budget_armed: Cell<u64>,
    /// Events until the next cancel poll; `u64::MAX` means "no token
    /// armed".
    pub(crate) until_poll: Cell<u64>,
    /// Exact events charged since the token was armed.
    pub(crate) charged: Cell<u64>,
}

/// The cold half: what hooks touch only while their plane is on.
pub(crate) struct Cold {
    pub(crate) schedule: RefCell<Option<FaultSchedule>>,
    pub(crate) recovery: RefCell<Vec<RecoveryEvent>>,
    /// Whether [`drain`] reports telemetry (`Some`), even when the
    /// `telemetry` feature is compiled out.
    pub(crate) telemetry_on: Cell<bool>,
    #[cfg(feature = "telemetry")]
    pub(crate) telemetry: RefCell<crate::telemetry::Collector>,
    #[cfg(feature = "guards")]
    pub(crate) guards: RefCell<crate::guard::Collector>,
    pub(crate) token: RefCell<Option<Arc<CancelToken>>>,
}

thread_local! {
    pub(crate) static HOT: Hot = const {
        Hot {
            faults: Cell::new(false),
            recovery: Cell::new(false),
            #[cfg(feature = "telemetry")]
            telemetry: Cell::new(false),
            #[cfg(feature = "guards")]
            guards: Cell::new(false),
            budget_left: Cell::new(u64::MAX),
            budget_armed: Cell::new(u64::MAX),
            until_poll: Cell::new(u64::MAX),
            charged: Cell::new(0),
        }
    };
    pub(crate) static COLD: Cold = const {
        Cold {
            schedule: RefCell::new(None),
            recovery: RefCell::new(Vec::new()),
            telemetry_on: Cell::new(false),
            #[cfg(feature = "telemetry")]
            telemetry: RefCell::new(crate::telemetry::Collector::new()),
            #[cfg(feature = "guards")]
            guards: RefCell::new(crate::guard::Collector::new(GuardPolicy::Record)),
            token: RefCell::new(None),
        }
    };
}

/// Tears the attempt context down when dropped.
#[must_use = "the attempt context tears down when this guard drops"]
pub struct AttemptGuard {
    _private: (),
}

impl Drop for AttemptGuard {
    fn drop(&mut self) {
        load(None, u64::MAX, false, None, None);
    }
}

/// Installs `spec` as this thread's attempt context, replacing whatever
/// was installed before. Everything tears down when the guard drops.
pub fn install(spec: AttemptSpec) -> AttemptGuard {
    load(
        spec.schedule,
        spec.event_budget,
        spec.telemetry,
        spec.guards,
        Some(spec.cancel),
    );
    AttemptGuard { _private: () }
}

/// Sets every plane of the context, collectors restarting empty; with
/// `None`/`u64::MAX`/`false` everywhere it is the teardown. Planes are set
/// in teardown order: the cancel token first, so no later step can observe
/// a kill, then the guard collector, the budget, the telemetry collector,
/// the recovery collector and the fault plane.
fn load(
    schedule: Option<FaultSchedule>,
    event_budget: u64,
    telemetry: bool,
    guards: Option<GuardPolicy>,
    token: Option<Arc<CancelToken>>,
) {
    #[cfg(not(feature = "guards"))]
    let _ = guards;
    HOT.with(|h| {
        COLD.with(|c| {
            h.until_poll
                .set(token.as_ref().map_or(u64::MAX, |_| POLL_INTERVAL));
            h.charged.set(0);
            c.token.replace(token);
            #[cfg(feature = "guards")]
            {
                h.guards.set(guards.is_some());
                c.guards
                    .replace(crate::guard::Collector::new(guards.unwrap_or_default()));
            }
            h.budget_left.set(event_budget);
            h.budget_armed.set(event_budget);
            c.telemetry_on.set(telemetry);
            #[cfg(feature = "telemetry")]
            {
                h.telemetry.set(telemetry);
                c.telemetry.replace(crate::telemetry::Collector::new());
            }
            h.recovery.set(schedule.is_some());
            c.recovery.take();
            h.faults.set(schedule.is_some());
            c.schedule.replace(schedule);
        })
    });
}

/// Takes everything the attempt recorded so far, leaving the context
/// installed with empty collectors (the budget keeps counting). With no
/// context installed everything comes back empty.
pub fn drain() -> Drained {
    COLD.with(|c| Drained {
        recovery: c.recovery.take(),
        events: budget::consumed().unwrap_or(0),
        telemetry: c.telemetry_on.get().then(|| {
            #[cfg(feature = "telemetry")]
            let t = c.telemetry.borrow_mut().take();
            #[cfg(not(feature = "telemetry"))]
            let t = AttemptTelemetry::default();
            t
        }),
        #[cfg(feature = "guards")]
        guards: c.guards.borrow_mut().take(),
        #[cfg(not(feature = "guards"))]
        guards: AttemptGuards::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{self, FaultScenario};
    use crate::{cancel, guard, recovery, telemetry};

    #[test]
    fn every_combination_installs_exactly_its_planes_and_tears_down_on_panic() {
        for mask in 0..8u8 {
            let (with_schedule, with_telemetry, with_guards) =
                (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
            let spec = || AttemptSpec {
                schedule: with_schedule
                    .then(|| FaultSchedule::generate(7, &FaultScenario::chaos())),
                event_budget: 100,
                telemetry: with_telemetry,
                guards: with_guards.then_some(GuardPolicy::Record),
                cancel: Arc::new(CancelToken::new()),
            };
            let case =
                format!("schedule={with_schedule} telemetry={with_telemetry} guards={with_guards}");
            {
                let _ctx = install(spec());
                assert_eq!(faults::enabled(), with_schedule, "{case}");
                assert_eq!(recovery::enabled(), with_schedule, "{case}");
                assert_eq!(
                    telemetry::enabled(),
                    with_telemetry && telemetry::compiled(),
                    "{case}"
                );
                assert_eq!(guard::enabled(), with_guards && guard::compiled(), "{case}");
                assert_eq!(budget::remaining(), Some(100), "{case}");
                assert!(cancel::armed(), "{case}");
                let drained = drain();
                assert_eq!(drained.telemetry.is_some(), with_telemetry, "{case}");
            }
            let result = std::panic::catch_unwind(|| {
                let _ctx = install(spec());
                budget::charge(1);
                panic!("attempt dies with its context installed");
            });
            assert!(result.is_err(), "{case}");
            assert!(!faults::enabled(), "{case}");
            assert!(!recovery::enabled(), "{case}");
            assert!(!telemetry::enabled(), "{case}");
            assert!(!guard::enabled(), "{case}");
            assert_eq!(budget::remaining(), None, "{case}");
            assert!(!cancel::armed(), "{case}");
            let drained = drain();
            assert!(drained.recovery.is_empty() && drained.telemetry.is_none());
            assert_eq!(drained.events, 0, "{case}");
        }
    }
}
