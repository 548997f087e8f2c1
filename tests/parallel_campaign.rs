//! The parallel scheduler's determinism contract, end to end.
//!
//! Two halves of the same promise:
//! 1. a campaign run on a `--jobs 4` worker pool renders a `manifest.json`
//!    byte-identical to the serial run — under a quiet plane and under a
//!    chaos scenario — because each experiment's world is a pure function
//!    of (id, seed, attempt) and rows are collected in registry order;
//! 2. the radio hot-path caches (per-band FSPL/EIRP tables, shadowing
//!    node tiles, per-segment link budgets) are *bit*-identical to the
//!    uncached math over a dense distance/band grid, so the parallel
//!    speedup never buys a different world.

use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{manifest_from_entries, ManifestEntry, Supervisor};
use fiveg_wild::geo::route::Point;
use fiveg_wild::radio::band::{Band, BandClass, Direction};
use fiveg_wild::radio::link::{link_capacity_mbps, LinkBudget, LinkState};
use fiveg_wild::radio::propagation::{
    path_loss_db, path_loss_db_uncached, rsrp_dbm, ShadowingField,
};
use fiveg_wild::radio::ue::UeModel;
use fiveg_wild::simcore::faults::FaultScenario;

/// A small real-experiment subset that is cheap enough to run twice per
/// scenario in debug tests but still spans several subsystems.
fn subset() -> Vec<(&'static str, Experiment)> {
    let wanted = ["table1", "fig1", "fig2", "fig9", "table2", "fig11"];
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

fn manifest_bytes(sup: &Supervisor, jobs: usize, seed: u64, scenario: Option<&str>) -> String {
    let entries = subset();
    let outcomes = sup
        .run_registry_jobs_timed(&entries, seed, jobs, |_, _| {})
        .0;
    let rows: Vec<ManifestEntry> = outcomes.iter().map(ManifestEntry::from_outcome).collect();
    manifest_from_entries(&rows, seed, scenario).render()
}

#[test]
fn quiet_campaign_is_byte_identical_serial_vs_jobs_4() {
    let sup = Supervisor::default();
    let serial = manifest_bytes(&sup, 1, 2021, None);
    let parallel = manifest_bytes(&sup, 4, 2021, None);
    assert_eq!(serial, parallel);
}

#[test]
fn chaos_campaign_is_byte_identical_serial_vs_jobs_4() {
    let sup = Supervisor::with_scenario(FaultScenario::chaos());
    let serial = manifest_bytes(&sup, 1, 2021, Some("chaos"));
    let parallel = manifest_bytes(&sup, 4, 2021, Some("chaos"));
    assert_eq!(serial, parallel);
}

#[test]
fn cached_propagation_matches_uncached_over_dense_grid() {
    for band in Band::ALL {
        for blocked in [false, true] {
            let mut d = 0.5_f64;
            while d < 3000.0 {
                let cached = path_loss_db(band, d, blocked);
                let raw = path_loss_db_uncached(band, d, blocked);
                assert_eq!(
                    cached.to_bits(),
                    raw.to_bits(),
                    "path loss diverged: {band:?} blocked={blocked} at {d} m"
                );
                // rsrp_dbm routes through the EIRP table too; pin it against
                // a from-scratch recompute (the same calibrated per-class
                // EIRP constants as `propagation::effective_eirp_dbm`).
                let eirp = match band.class() {
                    BandClass::MmWave => 35.0,
                    BandClass::LowBand => 33.0,
                    BandClass::Lte => 49.0,
                };
                let expect = (eirp - path_loss_db_uncached(band, d, blocked)).min(-44.0);
                assert_eq!(
                    rsrp_dbm(band, d, blocked).to_bits(),
                    expect.to_bits(),
                    "rsrp diverged: {band:?} blocked={blocked} at {d} m"
                );
                d *= 1.07;
            }
        }
    }
}

#[test]
fn cached_shadowing_matches_uncached_over_dense_grid() {
    let field = ShadowingField::new(0xBEEF);
    let classes = [BandClass::MmWave, BandClass::LowBand, BandClass::Lte];
    for tower in 0..4_u64 {
        for ix in -6..=6_i64 {
            for iy in -6..=6_i64 {
                let p = Point {
                    x: ix as f64 * 17.3,
                    y: iy as f64 * 23.1,
                };
                let class = classes[(tower as usize + (ix + 6) as usize) % classes.len()];
                let cached = field.sample_db(tower, class, p);
                let raw = field.sample_db_uncached(tower, class, p);
                assert_eq!(
                    cached.to_bits(),
                    raw.to_bits(),
                    "shadowing diverged: tower {tower} at {p:?}"
                );
            }
        }
    }
    // Revisit with a now-warm cache and in a different order: still
    // bit-identical (cache hits serve the same values the misses stored).
    for tower in (0..4_u64).rev() {
        let p = Point { x: -31.9, y: 57.7 };
        assert_eq!(
            field.sample_db(tower, BandClass::MmWave, p).to_bits(),
            field
                .sample_db_uncached(tower, BandClass::MmWave, p)
                .to_bits(),
        );
    }
}

#[test]
fn link_budget_matches_scalar_capacity_over_dense_grid() {
    for ue in [UeModel::GalaxyS10, UeModel::GalaxyS20Ultra, UeModel::Pixel5] {
        for band in Band::ALL {
            for sa in [false, true] {
                for dir in [Direction::Downlink, Direction::Uplink] {
                    let budget = LinkBudget::new(ue, band, sa, dir);
                    let mut rsrp = -150.0_f64;
                    while rsrp <= -20.0 {
                        let link = LinkState {
                            band,
                            rsrp_dbm: rsrp,
                            sa,
                        };
                        assert_eq!(
                            budget.capacity_mbps(rsrp).to_bits(),
                            link_capacity_mbps(ue, &link, dir).to_bits(),
                            "budget diverged: {ue:?} {band:?} sa={sa} {dir:?} rsrp={rsrp}"
                        );
                        rsrp += 0.7;
                    }
                }
            }
        }
    }
}
