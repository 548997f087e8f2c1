//! One-call installation of the per-attempt ambient planes.
//!
//! A supervised experiment attempt needs its thread-local planes installed
//! on its (fresh) thread before the experiment body runs: the
//! deterministic fault plane, the recovery-event collector, the telemetry
//! collector, the invariant guard collector, the event budget, and the
//! cancellation token. Many worker threads spawn attempt threads
//! concurrently, so the install sequence lives here — one helper, keeping
//! "what an attempt's ambient world looks like" defined in exactly one
//! place.
//!
//! Invariants the helper preserves:
//!
//! * the fault plane is exactly the schedule the caller hands in — the
//!   supervised runner generates it from `(attempt_seed, scenario)` only,
//!   with no shared RNG, so attempt N of experiment E sees the same
//!   schedule no matter which worker runs it, or in what order;
//! * the recovery collector is installed only alongside a fault schedule,
//!   so fault-free campaigns report zero recovery events by construction;
//! * the telemetry collector is installed only when asked for, so
//!   unobserved campaigns stay byte-identical by construction;
//! * the guard collector is installed only when a policy is given (the
//!   supervised runner's default is `Record`); its checks never mutate
//!   simulation state, so guarded and unguarded campaigns are
//!   byte-identical either way;
//! * everything uninstalls when the returned guard drops, even on panic,
//!   so a pooled worker can never leak one attempt's planes into the next.

use std::sync::Arc;

use crate::budget::{self, BudgetGuard};
use crate::cancel::{self, CancelGuard, CancelToken};
use crate::faults::{self, FaultSchedule, PlaneGuard};
use crate::guard::{self, GuardPolicy, GuardsGuard};
use crate::recovery::{self, CollectorGuard};
use crate::telemetry::{self, TelemetryGuard};

/// Guards for one attempt's ambient planes; dropping uninstalls all of
/// them (cancel token, guards, budget, telemetry collector, recovery
/// collector, fault plane) in reverse install order. The cancel token
/// disarms first, so no later teardown step can observe a kill.
#[must_use = "the ambient planes uninstall when this guard drops"]
pub struct AmbientGuard {
    _cancel: Option<CancelGuard>,
    _guards: Option<GuardsGuard>,
    _budget: BudgetGuard,
    _telemetry: Option<TelemetryGuard>,
    _collector: Option<CollectorGuard>,
    _plane: Option<PlaneGuard>,
}

/// Installs the ambient planes for one supervised attempt on the current
/// thread: the fault plane of `schedule` (skipped when `None`; a shrunk,
/// hand-edited reproducer schedule installs exactly like a generated one),
/// the recovery collector (only alongside a schedule), the telemetry
/// collector (only when `telemetry` — off by default, so uninstrumented
/// campaigns stay byte-identical by construction), the invariant guard
/// collector (when `guards` names a policy — the supervised runner defaults
/// to [`GuardPolicy::Record`]), an armed event budget, and the cooperative
/// cancellation token (when `cancel` carries the supervisor's end — `None`
/// leaves the plane disarmed and free).
pub fn install_schedule(
    schedule: Option<FaultSchedule>,
    event_budget: u64,
    telemetry: bool,
    guards: Option<GuardPolicy>,
    cancel: Option<Arc<CancelToken>>,
) -> AmbientGuard {
    let has_schedule = schedule.is_some();
    AmbientGuard {
        _plane: schedule.map(faults::install),
        _collector: has_schedule.then(recovery::collect),
        _telemetry: telemetry.then(telemetry::collect),
        _budget: budget::arm(event_budget),
        _guards: guards.map(guard::collect),
        _cancel: cancel.map(cancel::arm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultScenario;

    #[test]
    fn no_scenario_installs_budget_only() {
        {
            let _g = install_schedule(None, 100, false, None, None);
            assert!(!faults::enabled());
            assert!(!recovery::enabled());
            assert!(!telemetry::enabled());
            assert!(!guard::enabled());
            assert_eq!(budget::remaining(), Some(100));
        }
        assert_eq!(budget::remaining(), None);
    }

    #[test]
    fn scenario_installs_all_three_and_uninstalls_on_drop() {
        {
            let schedule = FaultSchedule::generate(7, &FaultScenario::chaos());
            let _g = install_schedule(Some(schedule), 100, false, None, None);
            assert!(faults::enabled());
            assert!(recovery::enabled());
            assert!(!telemetry::enabled(), "telemetry stays opt-in");
            assert_eq!(budget::remaining(), Some(100));
        }
        assert!(!faults::enabled());
        assert!(!recovery::enabled());
        assert_eq!(budget::remaining(), None);
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn telemetry_flag_installs_the_collector() {
        {
            let _g = install_schedule(None, 100, true, None, None);
            assert!(telemetry::enabled());
            assert!(!faults::enabled(), "telemetry does not drag faults in");
        }
        assert!(!telemetry::enabled());
    }

    #[test]
    #[cfg(feature = "guards")]
    fn guard_policy_installs_the_collector() {
        {
            let _g = install_schedule(None, 100, false, Some(GuardPolicy::Record), None);
            assert!(guard::enabled());
            assert!(!faults::enabled(), "guards do not drag faults in");
            assert!(!telemetry::enabled());
        }
        assert!(!guard::enabled());
    }

    #[test]
    fn plane_is_a_pure_function_of_seed_and_scenario() {
        let sc = FaultScenario::chaos();
        let a = FaultSchedule::generate(11, &sc);
        let b = FaultSchedule::generate(11, &sc);
        assert_eq!(a.events().len(), b.events().len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.start_s, y.start_s);
            assert_eq!(x.duration_s, y.duration_s);
        }
    }
}
