//! Per-call cost of the attempt-context hooks, armed and disarmed.
//!
//! Each sample runs one hook `CALLS` times in a tight loop; divide the
//! printed milliseconds by `CALLS / 1e6` for nanoseconds per call. The
//! disarmed rows time the path every simulator pays outside a supervised
//! attempt (one thread-local flag load); the armed rows time the same hook
//! inside an installed attempt.

use std::hint::black_box;

use fiveg_bench::timing::bench;
use fiveg_simcore::attempt::{self, AttemptSpec};
use fiveg_simcore::faults::{self, FaultKind, FaultScenario, FaultSchedule};
use fiveg_simcore::{budget, telemetry};

/// Hook calls per timed sample.
const CALLS: u64 = 10_000_000;

fn charge_loop() {
    for _ in 0..CALLS {
        budget::charge(black_box(1));
    }
}

fn is_active_loop() -> u64 {
    // A time no chaos window covers on most seeds still walks the
    // schedule, which is the armed cost a hook pays between faults.
    let mut hits = 0;
    for i in 0..CALLS / 100 {
        hits += u64::from(faults::is_active(
            FaultKind::StallWindow,
            black_box(i as f64 * 1e-3),
        ));
    }
    hits
}

fn count_loop() {
    for _ in 0..CALLS {
        telemetry::count("transport/loss", black_box(1));
    }
}

fn main() {
    bench("budget_charge_disarmed_1e7", charge_loop);
    {
        let _ctx = attempt::install(AttemptSpec {
            event_budget: u64::MAX - 1,
            ..AttemptSpec::default()
        });
        bench("budget_charge_armed_1e7", charge_loop);
    }

    bench("faults_is_active_no_plane_1e5", is_active_loop);
    {
        let schedule = FaultSchedule::generate(2021, &FaultScenario::chaos());
        let _ctx = attempt::install(AttemptSpec {
            schedule: Some(schedule),
            ..AttemptSpec::default()
        });
        bench("faults_is_active_chaos_plane_1e5", is_active_loop);
    }

    bench("telemetry_count_off_1e7", count_loop);
    {
        let _ctx = attempt::install(AttemptSpec {
            telemetry: true,
            ..AttemptSpec::default()
        });
        bench("telemetry_count_on_1e7", count_loop);
    }
}
