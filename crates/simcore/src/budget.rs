//! Event-count budgets for supervised experiment runs.
//!
//! The supervised runner in `fiveg-bench` arms a per-attempt budget through
//! [`crate::attempt::install`]; hot simulation loops [`charge`] it once per
//! step or scheduled event. An experiment that spins (a stuck clock, a
//! fault schedule that wedges a loop) exhausts the budget and panics with a
//! recognizable message, which the runner's `catch_unwind` converts into a
//! `degraded` report instead of a hung campaign.
//!
//! With no budget armed — the default everywhere outside the supervised
//! runner — [`charge`] is a thread-local load and a branch.

use crate::attempt::HOT;

/// Panic message prefix on budget exhaustion; the supervised runner matches
/// on it to label the failure.
pub const EXHAUSTED_MSG: &str = "simcore::budget exhausted";

/// Charges `n` events against the armed budget, then lets the
/// cancellation plane observe the charge (`crate::cancel::observe_on`) —
/// both in one thread-local lookup.
///
/// # Panics
///
/// Panics with [`EXHAUSTED_MSG`] when the budget runs out, or with
/// [`crate::cancel::CANCELLED_MSG`] when an armed cancellation token was
/// killed or passed its deadline. Never panics when neither plane is
/// armed.
#[inline]
pub fn charge(n: u64) {
    HOT.with(|h| {
        let left = h.budget_left.get();
        if left != u64::MAX {
            if left < n {
                h.budget_left.set(0);
                panic!("{EXHAUSTED_MSG}: experiment exceeded its event budget");
            }
            h.budget_left.set(left - n);
        }
        crate::cancel::observe_on(h, n);
    });
}

/// Events charged against the armed budget so far, or `None` when no
/// budget is armed. The supervised runner reads this after an experiment
/// finishes to report event throughput (events/sec) for the campaign's
/// perf baseline.
pub fn consumed() -> Option<u64> {
    HOT.with(|h| {
        let armed = h.budget_armed.get();
        (armed != u64::MAX).then(|| armed.saturating_sub(h.budget_left.get()))
    })
}

/// Remaining events, or `None` when no budget is armed.
pub fn remaining() -> Option<u64> {
    let left = HOT.with(|h| h.budget_left.get());
    (left != u64::MAX).then_some(left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attempt::{self, AttemptSpec};

    fn arm(events: u64) -> attempt::AttemptGuard {
        attempt::install(AttemptSpec {
            event_budget: events,
            ..AttemptSpec::default()
        })
    }

    #[test]
    fn unarmed_charge_is_free() {
        assert_eq!(remaining(), None);
        charge(1_000_000);
        assert_eq!(remaining(), None);
    }

    #[test]
    fn armed_budget_counts_down_and_disarms() {
        {
            let _guard = arm(10);
            assert_eq!(remaining(), Some(10));
            charge(4);
            assert_eq!(remaining(), Some(6));
            assert_eq!(consumed(), Some(4));
        }
        assert_eq!(remaining(), None);
        assert_eq!(consumed(), None);
    }

    #[test]
    fn exhaustion_panics_with_marker() {
        let result = std::panic::catch_unwind(|| {
            let _guard = arm(3);
            charge(2);
            charge(2);
        });
        let err = result.expect_err("budget must blow");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains(EXHAUSTED_MSG), "got: {msg}");
        // The guard dropped during unwinding, so the thread is disarmed.
        assert_eq!(remaining(), None);
    }
}
