//! The guard plane's two core promises, end to end:
//!
//! 1. **Observation only** — a campaign run with the invariant guards on
//!    renders a `manifest.json` and reports byte-identical to one run
//!    with them off: guards check the world, they never change it (they
//!    draw no randomness and mutate no simulation state).
//! 2. **Quiet means clean** — on the unfaulted simulation the guarded
//!    subset records zero violations across radio, RRC, transport, and
//!    video, and the check counters prove the hooks actually ran.
//!
//! Mirrors `tests/telemetry_plane.rs` for the sibling plane.

use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{manifest_from_entries, ManifestEntry, RunOutcome, Supervisor};
use fiveg_wild::simcore::guard::{self, GuardPolicy};
use std::sync::OnceLock;

/// The same four-layer subset the telemetry plane test uses: fig9 drives
/// the radio, fig10 exercises the RRC machine, fig8 runs the TCP
/// simulator, fig17 streams video.
fn subset() -> Vec<(&'static str, Experiment)> {
    let wanted = ["fig9", "fig10", "fig8", "fig17"];
    let registry = experiments::registry();
    wanted
        .iter()
        .map(|w| {
            *registry
                .iter()
                .find(|(id, _)| id == w)
                .unwrap_or_else(|| panic!("registry lost {w}"))
        })
        .collect()
}

fn run(guards: Option<GuardPolicy>, jobs: usize) -> Vec<RunOutcome> {
    let supervisor = Supervisor {
        guards,
        ..Supervisor::default()
    };
    supervisor
        .run_registry_jobs_timed(&subset(), 2021, jobs, |_, _| {})
        .0
}

/// The serial guarded run, shared by several tests (the subset is
/// expensive in debug builds).
fn guarded() -> &'static [RunOutcome] {
    static RUN: OnceLock<Vec<RunOutcome>> = OnceLock::new();
    RUN.get_or_init(|| run(Some(GuardPolicy::Record), 1))
}

/// The serial unguarded run, shared likewise.
fn unguarded() -> &'static [RunOutcome] {
    static RUN: OnceLock<Vec<RunOutcome>> = OnceLock::new();
    RUN.get_or_init(|| run(None, 1))
}

fn manifest_bytes(outcomes: &[RunOutcome]) -> String {
    let rows: Vec<ManifestEntry> = outcomes.iter().map(ManifestEntry::from_outcome).collect();
    manifest_from_entries(&rows, 2021, None).render()
}

fn report_bytes(outcomes: &[RunOutcome]) -> Vec<String> {
    outcomes.iter().map(|o| o.report.render()).collect()
}

#[test]
fn manifest_is_byte_identical_with_guards_off_and_on() {
    let off = manifest_bytes(unguarded());
    let on = manifest_bytes(guarded());
    assert_eq!(off, on, "checking invariants must not change the campaign");
}

#[test]
fn reports_are_byte_identical_with_guards_off_and_on() {
    let off = report_bytes(unguarded());
    let on = report_bytes(guarded());
    assert_eq!(off, on, "guard hooks must not perturb any artifact byte");
}

#[test]
fn guarded_manifest_is_identical_serial_vs_jobs_4() {
    let serial = manifest_bytes(guarded());
    let parallel = manifest_bytes(&run(Some(GuardPolicy::Record), 4));
    assert_eq!(
        serial, parallel,
        "worker count must not leak into guarded artifacts"
    );
}

#[test]
fn quiet_campaign_is_violation_free_and_actually_checked() {
    if !guard::compiled() {
        return;
    }
    let mut checks = 0u64;
    for o in guarded() {
        assert!(
            o.guards.is_clean(),
            "{}: quiet run recorded violations: {:?}",
            o.id,
            o.guards.violations
        );
        checks += o.guards.checks;
    }
    // The counter proves the hooks ran — a plane that silently never
    // fires would also be "clean".
    assert!(
        checks > 1_000,
        "only {checks} guard checks across the subset — hooks not wired?"
    );
}

#[test]
fn unguarded_supervisor_records_nothing() {
    for o in unguarded() {
        assert!(o.guards.is_clean());
        assert_eq!(
            o.guards.checks, 0,
            "{}: plane off must not count checks",
            o.id
        );
    }
}
