//! The benchmark's workloads and the untraced pass that measures them.
//!
//! The three serial workloads partition `experiments::registry()`;
//! `campaign-jobs` runs the whole registry on one worker per core. Every
//! workload is a closed-loop batch: an experiment (or shard) starts only
//! when a worker is free.

use fiveg_bench::experiments::{self, Experiment};
use fiveg_bench::runner::{RunOutcome, RunStatus, Supervisor};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The §4 power-modelling studies: walking traces, 5 kHz monitors, trees.
pub const POWER_WALK: &[&str] = &[
    "fig11", "fig12", "table8", "fig13", "fig14", "fig26", "fig15", "fig16", "table3", "table9",
];

/// The §5 ABR/QoE studies: Lumos corpora, players, MPC, Pensieve, GBDT.
pub const ABR_LEARN: &[&str] = &["fig17", "fig18a", "fig18b", "fig18c", "ablation-pensieve"];

/// The §3 transport, handoff, RRC and web studies plus their ablations.
pub const NET_PROBE: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table2",
    "table7",
    "fig19",
    "fig20",
    "fig21",
    "table6",
    "fig23",
    "fig24",
    "ablation-cc",
    "ablation-wmem",
    "ablation-hysteresis",
    "ablation-blockage",
    "bonded-uplink",
    "ext-periodic",
];

/// Workload names, in the order `BENCHMARK.json` lists them.
#[cfg(test)]
pub const NAMES: &[&str] = &["power-walk", "abr-learn", "net-probe", "campaign-jobs"];

/// One workload: which registry entries it runs and on how many workers.
pub struct Workload {
    /// Registry entries, in registry order.
    pub entries: Vec<(&'static str, Experiment)>,
    /// Worker threads.
    pub jobs: usize,
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    let (ids, parallel) = match name {
        "power-walk" => (Some(POWER_WALK), false),
        "abr-learn" => (Some(ABR_LEARN), false),
        "net-probe" => (Some(NET_PROBE), false),
        "campaign-jobs" => (None, true),
        _ => return None,
    };
    let entries = experiments::registry()
        .into_iter()
        .filter(|(id, _)| ids.is_none_or(|ids| ids.contains(id)))
        .collect();
    let jobs = if parallel {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        1
    };
    Some(Workload { entries, jobs })
}

/// CPU seconds (user + system) this process has used so far, over all
/// its threads, live and exited, at nanosecond resolution.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux ABIs this benchmark builds for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// One interval of a pass.
#[derive(Clone, Copy, Default)]
pub struct Lap {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of the process.
    pub cpu_s: f64,
}

/// One untraced pass through the supervised runner.
pub struct Pass {
    /// Wall seconds from the first experiment call to the last outcome.
    pub wall_s: f64,
    /// CPU seconds the process spent in the same interval.
    pub cpu_s: f64,
    /// On one worker, the pass cut at each experiment's completion, in
    /// registry order: lap `i` runs from the previous completion (or the
    /// start) to experiment `i`'s, so the laps add up to the pass. Empty on
    /// more workers, where experiments overlap.
    pub laps: Vec<Lap>,
    /// Seconds each worker spent inside experiments.
    pub busy_s: Vec<f64>,
    /// Outcomes in registry order.
    pub outcomes: Vec<RunOutcome>,
}

/// Runs the workload once, exactly as `figures --jobs N` schedules it: the
/// default supervisor with shard fan-out on.
pub fn run_pass(w: &Workload, supervisor: &Supervisor, seed: u64) -> Pass {
    let marks = Mutex::new(Vec::with_capacity(w.entries.len()));
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let (outcomes, busy_s) =
        supervisor.run_registry_jobs_timed(&w.entries, seed, w.jobs, |i, _| {
            let mark = (i, t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0);
            marks.lock().expect("marks lock").push(mark);
        });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let marks = marks.into_inner().expect("marks lock");
    // Marks come in completion order; laps go in registry order. The last
    // lap also takes the runner's return after the last outcome.
    let mut laps = Vec::new();
    if w.jobs == 1 {
        laps.resize(marks.len(), Lap::default());
        let mut prev = (0.0, 0.0);
        for (n, &(i, t, c)) in marks.iter().enumerate() {
            let end = if n + 1 == marks.len() {
                (wall_s, cpu_s)
            } else {
                (t, c)
            };
            laps[i] = Lap {
                wall_s: end.0 - prev.0,
                cpu_s: end.1 - prev.1,
            };
            prev = end;
        }
    }
    Pass {
        wall_s,
        cpu_s,
        laps,
        busy_s,
        outcomes,
    }
}

/// The output check of one outcome.
pub struct Checked {
    /// Experiment id.
    pub id: &'static str,
    /// FNV-1a of the rendered report.
    pub digest: u64,
    /// Empty when the outcome passed; otherwise why it failed.
    pub problem: String,
}

/// FNV-1a 64 over bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks one outcome: it must have succeeded on its first attempt, and at
/// the campaign seed its report must equal the committed golden
/// `results/<id>.txt` (read from `root`) byte for byte. At other seeds the
/// caller compares digests across repetitions.
pub fn check(outcome: &RunOutcome, seed: u64, root: &Path) -> Checked {
    let text = outcome.report.render();
    let mut problem = String::new();
    if outcome.status != RunStatus::Ok {
        problem = format!("status {}", outcome.status.as_str());
    } else if outcome.attempts != 1 {
        problem = format!("needed {} attempts", outcome.attempts);
    } else if seed == fiveg_bench::CAMPAIGN_SEED {
        let golden = root.join("results").join(format!("{}.txt", outcome.id));
        match std::fs::read(&golden) {
            Ok(bytes) if bytes == text.as_bytes() => {}
            Ok(_) => problem = format!("differs from {}", golden.display()),
            Err(e) => problem = format!("cannot read {}: {e}", golden.display()),
        }
    }
    Checked {
        id: outcome.id,
        digest: digest(text.as_bytes()),
        problem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_workloads_partition_the_registry() {
        let registry: Vec<&str> = experiments::registry().iter().map(|(id, _)| *id).collect();
        let mut seen: Vec<&str> = POWER_WALK
            .iter()
            .chain(ABR_LEARN)
            .chain(NET_PROBE)
            .copied()
            .collect();
        let listed = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), listed, "an id is in two serial workloads");
        let mut all = registry.clone();
        all.sort_unstable();
        assert_eq!(
            seen, all,
            "serial workloads must cover the registry exactly once"
        );
        let campaign = find("campaign-jobs").expect("campaign-jobs exists");
        assert_eq!(campaign.entries.len(), registry.len());
    }

    #[test]
    fn every_workload_name_resolves() {
        for name in NAMES {
            let w = find(name).expect("listed workload resolves");
            assert!(!w.entries.is_empty());
            assert!(w.jobs >= 1);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn laps_partition_a_serial_pass() {
        let cheap = ["table1", "fig1", "fig2", "table7"];
        let entries: Vec<_> = experiments::registry()
            .into_iter()
            .filter(|(id, _)| cheap.contains(id))
            .collect();
        let serial = Workload {
            entries: entries.clone(),
            jobs: 1,
        };
        let pass = run_pass(&serial, &Supervisor::default(), 7);
        assert_eq!(pass.laps.len(), cheap.len());
        let wall: f64 = pass.laps.iter().map(|l| l.wall_s).sum();
        let cpu: f64 = pass.laps.iter().map(|l| l.cpu_s).sum();
        assert!(
            (wall - pass.wall_s).abs() < 1e-9,
            "{wall} vs {}",
            pass.wall_s
        );
        assert!((cpu - pass.cpu_s).abs() < 1e-9, "{cpu} vs {}", pass.cpu_s);
        assert!(pass.laps.iter().all(|l| l.wall_s >= 0.0 && l.cpu_s >= 0.0));
        let pooled = Workload { entries, jobs: 2 };
        assert!(run_pass(&pooled, &Supervisor::default(), 7).laps.is_empty());
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
