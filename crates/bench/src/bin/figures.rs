//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures                      # list available experiments
//! figures all                  # run everything, in paper order
//! figures fig3 fig9            # run specific experiments
//! figures --seed 7 all         # re-roll the simulated world
//! figures --cc bbr bonded-uplink   # bonded-family controller override
//! figures --out results/ all   # also write one .txt per experiment
//! figures --chaos chaos all    # inject a named fault scenario
//! figures --resume --out results/ all   # continue a killed campaign
//! figures --jobs 4 all         # run the campaign on 4 worker threads
//! figures --no-shard all       # schedule experiments whole (no shard fan-out)
//! figures --profile all        # wall-sorted profile with hottest spans
//! figures --deadline-s 30 all  # per-attempt wall-clock deadline
//! figures --event-budget 5000000 all    # per-attempt event budget
//! figures --bench-out results/BENCH_campaign.json all   # record perf
//! figures --bench-baseline results/BENCH_campaign.json all  # drift check
//! figures --bench-strict ...   # exit non-zero on perf regression
//! figures --telemetry tel/ table2 fig9   # export spans/counters/hists
//! figures --obs obs/ all       # campaign metrics observatory
//! figures --obs-diff results/OBS_baseline.json obs/   # telemetry drift
//! figures --obs-strict --obs-diff <base> <cur>   # gate FAIL-grade drift
//! figures --list-scenarios     # print fault scenarios, one per line
//! figures --check-manifest results/manifest.json   # CI gate
//! figures --check-strict --check-manifest <m>  # also gate baseline drift
//! figures --validate [dir]     # paper-fidelity gate (default: results)
//! figures --strict all         # exit non-zero if any experiment degraded
//! figures --stress 32          # randomized stress sweep + shrinker
//! figures --stress 32 --stress-seed 7 --stress-scenario chaos
//! figures --repro results/stress/repro-c3-fig9.json   # replay a repro
//! ```
//!
//! Every experiment runs under the supervised runner: a panic, runaway
//! loop, or deadline blow-out in one experiment yields a `DEGRADED` report
//! for that experiment and the campaign continues. With `--chaos <name>`,
//! the named fault scenario (see `fiveg_simcore::faults::FaultScenario`)
//! is installed on each experiment's thread and a resilience table
//! (recovery actions, outage and rebuffer time, failovers) is appended to
//! the campaign output; without it the fault plane stays uninstalled and
//! the output is bit-identical to an unsupervised run.
//!
//! Campaigns are crash-consistent: with `--out`, every report and the
//! `manifest.json` are written atomically (temp file + rename), and the
//! manifest is rewritten after *each* experiment, so a kill at any point
//! leaves a parseable manifest describing exactly the work that finished.
//! `--resume` reads that manifest back and skips experiments that already
//! completed `ok` (their rows are re-emitted verbatim; a resumed campaign's
//! final manifest is byte-identical to an uninterrupted one).
//!
//! With `--jobs N` (default: the machine's available parallelism) the
//! campaign runs on a pool of worker threads pulling experiments from a
//! shared queue. Each experiment still gets its own fresh attempt thread
//! with its own fault plane / recovery collector / event budget, and rows
//! are collected in registry order, so the manifest, reports, and
//! resilience table are byte-identical to a serial run. Resumed rows are
//! skipped *before* the queue is built — workers never see them.
//! `--bench-out <path>` additionally writes `BENCH_campaign.json` with
//! per-experiment wall-clock and events/sec plus the campaign speedup
//! estimate (timings live only in this file, never in manifest.json).
//!
//! `--telemetry <dir>` installs the `fiveg_simcore::telemetry` collector
//! on every attempt thread and writes, per experiment, a JSONL event
//! stream (`<id>.jsonl`) and a Chrome `trace_event` file
//! (`<id>.trace.json`) — both pure sim-time data, byte-identical across
//! reruns and `--jobs N` — plus one campaign-wide `telemetry.txt` summary
//! (the only artifact carrying wall-clock numbers). Without the flag the
//! plane is never installed and every output byte matches an
//! uninstrumented build.
//!
//! `--obs <dir>` feeds the same per-attempt telemetry into the campaign
//! metrics observatory (`fiveg_bench::observe`): `metrics.json` — the
//! catalog-annotated campaign rollup (per-layer span/counter totals,
//! histogram quantiles, fixed-bin sim-time series) — plus the
//! `observatory.txt` dashboard and collapsed-stack flamegraphs
//! (`<id>.folded` per experiment, `campaign.folded` campaign-wide),
//! all byte-identical across reruns, `--jobs N`, and `--no-shard`.
//! `--obs-diff <baseline> <current>` compares two such stores under the
//! shared tolerance bands and prints a deterministic drift report;
//! `--obs-strict` exits non-zero on FAIL-grade drift (CI gates against
//! the committed `results/OBS_baseline.json`). `--check-strict` applies
//! the same bands to `--check-manifest`'s baseline drift report.
//!
//! `--stress N` switches the binary into the stress harness
//! (`fiveg_bench::stress`): `N` seeded cases of experiment × fault
//! scenario × perturbed seed/budget run on the worker pool; every panic,
//! budget blow-out, guard-plane violation, or non-finite artifact number
//! is shrunk to a minimal case and written as a replayable reproducer
//! under `<out>/stress/`, next to a deterministic `stress.txt` summary
//! (byte-identical across reruns of the same `--stress-seed`).
//! `--repro <file>` replays one reproducer and exits 0 iff the recorded
//! failure reproduces exactly. `--strict` makes a campaign exit non-zero
//! when any experiment finished degraded.
//!
//! Shardable experiments (see `fiveg_bench::shard`) are decomposed into
//! independent units that feed the same worker pool as whole experiments,
//! so `--jobs N` parallelism applies *inside* the longest experiments too.
//! The decomposition itself runs in every mode — `--no-shard` only turns
//! off the pool fan-out (each shardable experiment runs its shards
//! in-line on one worker), so artifacts are byte-identical either way.
//! `--profile` forces span collection on every attempt and prints a
//! wall-clock-sorted experiment profile with each experiment's hottest
//! telemetry spans — the map for deciding what to shard or optimize next.
//! `--bench-baseline <path>` compares the finished campaign's
//! per-experiment wall clock against a recorded `BENCH_campaign.json` and
//! warns about regressions (generous 2× + 0.25 s tolerance, wall noise is
//! real); `--bench-strict` turns those warnings into a non-zero exit.
//!
//! Campaigns are interrupt-safe: SIGINT (^C) or SIGTERM cancels in-flight
//! attempts cooperatively (their threads observe the kill at the next
//! budget charge, unwind, and exit — no leaked threads) and makes every
//! experiment not yet started return at once without running; the
//! manifest is flushed atomically with all of those rows marked
//! `interrupted`, and the binary exits with code 130. `--resume` then
//! re-runs every row that did not finish `ok`; the completed rows are
//! re-emitted verbatim, so the resumed campaign's artifacts are
//! byte-identical to an uninterrupted run. `--deadline-s <secs>` and
//! `--event-budget <n>` tighten the per-attempt wall-clock deadline and
//! event budget (they also bound stress-mode cases and `--repro`
//! replays).

use fiveg_bench::json::Json;
use fiveg_bench::report::{f, Table};
use fiveg_bench::runner::{self, ManifestEntry, RunStatus, Supervisor};
use fiveg_bench::{experiments, observe, stress, telemetry as telexport, CAMPAIGN_SEED};
use fiveg_simcore::faults::FaultScenario;
use fiveg_simcore::recovery::RecoveryKind;
use fiveg_simcore::stats::Grade;
use fiveg_simcore::telemetry::AttemptTelemetry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

fn print_scenarios() {
    for name in FaultScenario::names() {
        println!("{name}");
    }
}

/// `--check-manifest <path>`: exit 0 iff the manifest parses, no
/// experiment degraded, and no row was left `interrupted` (an interrupted
/// campaign is incomplete until `--resume` finishes it). The CI gate for
/// chaos campaigns. With `--check-strict`, the baseline drift report
/// (warn-only by default) also gates: any drift past the shared
/// [`observe::OBS_TOLERANCE`] fail band exits non-zero.
fn check_manifest(path: &str, strict: bool) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let (seed, scenario, entries) = match runner::parse_manifest(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{path}: malformed manifest: {e}");
            std::process::exit(1);
        }
    };
    let interrupted: Vec<&ManifestEntry> = entries
        .iter()
        .filter(|e| e.status == RunStatus::Interrupted)
        .collect();
    if !interrupted.is_empty() {
        for e in &interrupted {
            eprintln!(
                "{path}: `{}` interrupted: {}",
                e.id,
                e.note.as_deref().unwrap_or("campaign stopped mid-run")
            );
        }
        eprintln!(
            "{path}: campaign incomplete ({} interrupted row(s)) — finish it with --resume",
            interrupted.len()
        );
        std::process::exit(1);
    }
    let degraded: Vec<&ManifestEntry> = entries
        .iter()
        .filter(|e| e.status == RunStatus::Degraded)
        .collect();
    if !degraded.is_empty() {
        for e in &degraded {
            eprintln!(
                "{path}: `{}` degraded: {}",
                e.id,
                e.note.as_deref().unwrap_or("unknown failure")
            );
        }
        std::process::exit(1);
    }
    let recoveries: usize = entries.iter().map(|e| e.recovery.events).sum();
    println!(
        "{path}: ok — seed {seed}, scenario {}, {} experiments, {recoveries} recovery events",
        scenario.as_deref().unwrap_or("none"),
        entries.len()
    );
    let breaches = report_baseline_drift(seed, scenario.as_deref(), &entries, strict);
    if strict && breaches > 0 {
        eprintln!(
            "--check-strict: {breaches} baseline drift breach(es) beyond the \
             {}%/{}% tolerance bands",
            observe::OBS_TOLERANCE.warn_pct,
            observe::OBS_TOLERANCE.fail_pct
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Companion to `--check-manifest`: when the tracked perf baseline
/// (`results/BENCH_campaign.json`) is present, report each manifest
/// experiment's baseline wall-clock and event count and flag drift the
/// manifest itself cannot show (the manifest carries no timings by
/// design). Deterministic drift — seed/scenario mismatch, status changes,
/// missing rows, and recovery-event counts outside
/// [`observe::OBS_TOLERANCE`] — counts toward the returned breach tally,
/// which `--check-strict` turns into a non-zero exit; without it the
/// report stays warn-only.
fn report_baseline_drift(
    seed: u64,
    scenario: Option<&str>,
    entries: &[ManifestEntry],
    strict: bool,
) -> usize {
    let base_path = Path::new("results/BENCH_campaign.json");
    let Ok(text) = std::fs::read_to_string(base_path) else {
        if strict {
            eprintln!(
                "--check-strict: no tracked baseline at {} — nothing to gate against",
                base_path.display()
            );
            return 1;
        }
        return 0; // no baseline tracked — nothing to compare
    };
    let base = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("warning: {} unparseable: {e}", base_path.display());
            return 1;
        }
    };
    let mut breaches = 0usize;
    println!("-- baseline comparison ({}) --", base_path.display());
    let base_seed = base.get("seed").and_then(Json::as_f64);
    if base_seed != Some(seed as f64) {
        eprintln!(
            "warning: baseline seed {:?} != manifest seed {seed} — timings may not be comparable",
            base_seed
        );
        breaches += 1;
    }
    let base_scenario = base.get("scenario").and_then(Json::as_str);
    if base_scenario != scenario {
        eprintln!(
            "warning: baseline scenario {} != manifest scenario {}",
            base_scenario.unwrap_or("none"),
            scenario.unwrap_or("none")
        );
        breaches += 1;
    }
    let rows = base.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    for e in entries {
        let row = rows
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(e.id.as_str()));
        let Some(row) = row else {
            eprintln!("warning: `{}` has no row in the perf baseline", e.id);
            breaches += 1;
            continue;
        };
        let wall = row.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0);
        let events = row.get("events").and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  {:<10} baseline wall {:.4} s, {} events",
            e.id, wall, events as u64
        );
        let base_status = row.get("status").and_then(Json::as_str).unwrap_or("ok");
        if base_status != e.status.as_str() {
            eprintln!(
                "warning: `{}` status drifted: baseline {base_status}, manifest {}",
                e.id,
                e.status.as_str()
            );
            breaches += 1;
        }
        // Recovery-event counts are deterministic, so they grade under the
        // same tolerance bands as --obs-diff (older baselines without the
        // field are simply not graded).
        if let Some(base_re) = row.get("recovery_events").and_then(Json::as_f64) {
            let actual = e.recovery.events as f64;
            match observe::OBS_TOLERANCE.grade(base_re, actual) {
                Grade::Pass => {}
                Grade::Warn => eprintln!(
                    "warning: `{}` recovery events drifted: baseline {}, manifest {}",
                    e.id, base_re as u64, actual as u64
                ),
                Grade::Fail => {
                    eprintln!(
                        "warning: `{}` recovery events drifted past the fail band: \
                         baseline {}, manifest {}",
                        e.id, base_re as u64, actual as u64
                    );
                    breaches += 1;
                }
            }
        }
    }
    breaches
}

/// `--obs-diff <baseline> <current>`: compare two `metrics.json` documents
/// (a directory argument means `<dir>/metrics.json`) under the shared
/// tolerance bands and print the deterministic drift report. Exits
/// non-zero on FAIL-grade drift only with `--obs-strict`.
fn obs_diff(baseline: &str, current: &str, strict: bool) -> ! {
    let read = |arg: &str| -> Json {
        let mut path = PathBuf::from(arg);
        if path.is_dir() {
            path = path.join("metrics.json");
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("--obs-diff: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        match Json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("--obs-diff: {} unparseable: {e}", path.display());
                std::process::exit(2);
            }
        }
    };
    let d = observe::diff_metrics(&read(baseline), &read(current));
    print!("{}", d.report);
    if d.fails > 0 {
        eprintln!("--obs-diff: {} FAIL-grade drift row(s)", d.fails);
        if strict {
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// `--validate [dir]`: grade every artifact in `dir` against the
/// expected-value table (`bench::expect`), write `<dir>/validation.txt`
/// atomically, and exit non-zero on any FAIL. The paper-fidelity gate.
fn validate(dir: &str) -> ! {
    let dir = Path::new(dir);
    let v = fiveg_bench::expect::validate_dir(dir);
    print!("{}", v.report);
    if let Err(e) = runner::write_atomic(&dir.join("validation.txt"), &v.report) {
        eprintln!("cannot write {}: {e}", dir.join("validation.txt").display());
        std::process::exit(2);
    }
    std::process::exit(if v.ok() { 0 } else { 1 });
}

/// `--repro <file>`: replay a stress reproducer and exit 0 iff the
/// recorded failure reproduces exactly (same verdict, same signature).
fn replay_repro(path: &str, deadline: std::time::Duration) -> ! {
    let doc = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match stress::replay_repro(&doc, deadline) {
        Ok((case, expected, observed, matches)) => {
            println!(
                "case {}: experiment {}, scenario {}, seed {}, budget {}, {} fault event(s)",
                case.id,
                case.experiment,
                case.scenario.as_deref().unwrap_or("none"),
                case.seed,
                case.event_budget,
                case.size()
            );
            println!(
                "expected: {} — {}",
                expected.verdict.as_str(),
                expected.signature
            );
            println!(
                "observed: {} — {}",
                observed.verdict.as_str(),
                observed.signature
            );
            if matches {
                println!("{path}: reproduced");
                std::process::exit(0);
            }
            eprintln!("{path}: did NOT reproduce");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    }
}

/// `--stress N`: run the randomized stress sweep, shrink every failure,
/// and write `stress.txt` plus one reproducer per failing case under
/// `<out>/stress/`. Exits non-zero iff any case failed.
fn run_stress_mode(cfg: &stress::StressConfig, out_dir: &Path) -> ! {
    let dir = out_dir.join("stress");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    if !fiveg_simcore::guard::compiled() {
        eprintln!(
            "warning: built without the `guards` feature — invariant \
             violations cannot be detected, only panics and budget trips"
        );
    }
    println!(
        "stress: {} case(s), seed {}, scenario {}, {} worker(s)",
        cfg.cases,
        cfg.seed,
        cfg.scenario.as_deref().unwrap_or("randomized"),
        cfg.jobs
    );
    let report = stress::run_stress(cfg);
    let table = stress::stress_table(&report);
    print!("{table}");
    write_or_die(&dir.join("stress.txt"), &table);
    let mut repros = 0usize;
    for r in &report.results {
        if let Some((case, outcome, runs)) = &r.shrunk {
            let name = format!("repro-c{}-{}.json", case.id, case.experiment);
            write_or_die(
                &dir.join(&name),
                &stress::repro_json(report.seed, case, outcome).render(),
            );
            println!(
                "case {}: shrunk to {} fault event(s) in {runs} run(s) — wrote {}",
                case.id,
                case.size(),
                dir.join(&name).display()
            );
            repros += 1;
        }
    }
    let failures = report.failures();
    println!(
        "stress: {}/{} case(s) failed, {repros} reproducer(s) written to {}",
        failures,
        report.results.len(),
        dir.display()
    );
    std::process::exit(if failures == 0 { 0 } else { 1 });
}

/// Renders the campaign resilience table from finished manifest rows.
fn resilience_table(entries: &[ManifestEntry], scenario: &str, seed: u64) -> String {
    let mut t = Table::new(vec![
        "experiment",
        "events",
        "outage(s)",
        "detect(s)",
        "rebuffer(s)",
        "failovers",
    ]);
    let (mut ev, mut out, mut reb, mut fo) = (0usize, 0.0f64, 0.0f64, 0usize);
    let mut detect_weighted = 0.0f64;
    let mut by_kind: HashMap<&str, usize> = HashMap::new();
    for e in entries {
        let r = &e.recovery;
        t.row(vec![
            e.id.clone(),
            r.events.to_string(),
            f(r.outage_s, 2),
            f(r.mean_detect_s, 2),
            f(r.rebuffer_s, 2),
            r.failovers.to_string(),
        ]);
        ev += r.events;
        out += r.outage_s;
        reb += r.rebuffer_s;
        fo += r.failovers;
        detect_weighted += r.mean_detect_s * r.events as f64;
        for (k, n) in &r.by_kind {
            for kind in RecoveryKind::ALL {
                if kind.name() == k {
                    *by_kind.entry(kind.name()).or_insert(0) += n;
                }
            }
        }
    }
    let mean_detect = if ev > 0 {
        detect_weighted / ev as f64
    } else {
        0.0
    };
    t.row(vec![
        "TOTAL".to_string(),
        ev.to_string(),
        f(out, 2),
        f(mean_detect, 2),
        f(reb, 2),
        fo.to_string(),
    ]);
    let mut body = format!(
        "==== RESILIENCE — scenario `{scenario}`, seed {seed} ====\n{}",
        t.render()
    );
    body.push_str("recovery actions by kind:\n");
    for kind in RecoveryKind::ALL {
        if let Some(n) = by_kind.get(kind.name()) {
            body.push_str(&format!("  {:<20} {n}\n", kind.name()));
        }
    }
    // Non-ok rows carry their supervisor note (why the run degraded, how
    // far it got — e.g. "deadline exceeded (30.0 s); cancelled
    // cooperatively (wedged; 84211 events charged at kill)"). Healthy
    // campaigns have none, so this section never perturbs their bytes.
    let flagged: Vec<&ManifestEntry> = entries
        .iter()
        .filter(|e| e.status != RunStatus::Ok)
        .collect();
    if !flagged.is_empty() {
        body.push_str("degraded rows:\n");
        for e in flagged {
            body.push_str(&format!(
                "  {:<10} {:<11} {}\n",
                e.id,
                e.status.as_str(),
                e.note.as_deref().unwrap_or("no note recorded")
            ));
        }
    }
    body
}

/// Loads the prior manifest for `--resume`, returning rows safe to skip:
/// status `ok` *and* the report file still on disk. A missing, malformed,
/// or mismatched (different seed/scenario) manifest resumes nothing.
fn resumable_entries(
    dir: &Path,
    seed: u64,
    scenario: Option<&str>,
) -> HashMap<String, ManifestEntry> {
    let path = dir.join("manifest.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => {
            eprintln!("--resume: no prior {} — starting fresh", path.display());
            return HashMap::new();
        }
    };
    let (prev_seed, prev_scenario, entries) = match runner::parse_manifest(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("--resume: ignoring malformed {}: {e}", path.display());
            return HashMap::new();
        }
    };
    if prev_seed != seed || prev_scenario.as_deref() != scenario {
        eprintln!(
            "--resume: prior manifest is for seed {prev_seed} / scenario {} \
             (this run: seed {seed} / scenario {}) — starting fresh",
            prev_scenario.as_deref().unwrap_or("none"),
            scenario.unwrap_or("none"),
        );
        return HashMap::new();
    }
    entries
        .into_iter()
        .filter(|e| e.status == RunStatus::Ok && dir.join(format!("{}.txt", e.id)).exists())
        .map(|e| (e.id.clone(), e))
        .collect()
}

/// `--profile`: experiments sorted by wall clock, each with its three
/// hottest telemetry spans (by cumulative simulated time). This is the
/// entry point of the profile → shard → verify loop: the top rows are the
/// sharding/optimization candidates, the spans say which inner phase to
/// attack. Wall numbers are host-dependent and go to stdout only — never
/// into an artifact.
fn profile_summary(outcomes: &[runner::RunOutcome], campaign_wall_s: f64) -> String {
    let serial_s: f64 = outcomes.iter().map(|o| o.wall_s).sum();
    let mut by_wall: Vec<&runner::RunOutcome> = outcomes.iter().collect();
    by_wall.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    let mut body = format!(
        "==== PROFILE — campaign wall {campaign_wall_s:.2} s, \
         serial experiment time {serial_s:.2} s ====\n"
    );
    for o in by_wall {
        let pct = if serial_s > 0.0 {
            100.0 * o.wall_s / serial_s
        } else {
            0.0
        };
        body.push_str(&format!(
            "{:<20} {:>8.3} s  {:>5.1}%  {:>12} events\n",
            o.id, o.wall_s, pct, o.events
        ));
        let Some(telem) = &o.telemetry else { continue };
        let mut spans: Vec<_> = telem.spans.iter().collect();
        spans.sort_by(|a, b| b.1.total_s.total_cmp(&a.1.total_s));
        for (name, stat) in spans.into_iter().take(3) {
            body.push_str(&format!(
                "    {:<26} {:>10} span(s) {:>12.2} sim-s\n",
                name, stat.count, stat.total_s
            ));
        }
    }
    body
}

/// `--bench-baseline`: compare the finished campaign's per-experiment wall
/// clock against a recorded bench report. Returns the number of
/// regressions found (always also warned on stderr). The tolerance is
/// deliberately generous — wall-clock noise on shared runners is real —
/// so anything flagged is a genuine slowdown, not jitter.
fn compare_bench_baseline(
    rows: &[ManifestEntry],
    wall_by_id: &HashMap<String, f64>,
    path: &Path,
) -> usize {
    /// Flag only slowdowns beyond both a ratio and an absolute floor.
    const TOL_RATIO: f64 = 2.0;
    const TOL_FLOOR_S: f64 = 0.25;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--bench-baseline: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    let base = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("--bench-baseline: {} unparseable: {e}", path.display());
            return 1;
        }
    };
    let base_rows = base.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    let mut regressions = 0usize;
    for row in rows {
        let Some(&wall) = wall_by_id.get(&row.id) else {
            continue;
        };
        let base_wall = base_rows
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some(row.id.as_str()))
            .and_then(|r| r.get("wall_s"))
            .and_then(Json::as_f64);
        let Some(base_wall) = base_wall else {
            eprintln!(
                "--bench-baseline: `{}` has no row in {} — new experiment?",
                row.id,
                path.display()
            );
            continue;
        };
        if wall > base_wall * TOL_RATIO && wall - base_wall > TOL_FLOOR_S {
            eprintln!(
                "--bench-baseline: `{}` regressed: {:.3} s vs baseline {:.3} s \
                 (>{TOL_RATIO}x and >{TOL_FLOOR_S} s slower)",
                row.id, wall, base_wall
            );
            regressions += 1;
        }
    }
    if regressions == 0 {
        println!(
            "bench baseline {}: no wall-clock regression in {} experiment(s)",
            path.display(),
            rows.len()
        );
    }
    regressions
}

fn write_or_die(path: &Path, contents: &str) {
    if let Err(e) = runner::write_atomic(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-scenarios") {
        print_scenarios();
        return;
    }
    // The strict toggles are parsed before their dispatching flags so
    // `--check-strict --check-manifest <m>` and `--obs-strict --obs-diff
    // <a> <b>` work in any argument order.
    let mut check_strict = false;
    if let Some(pos) = args.iter().position(|a| a == "--check-strict") {
        args.remove(pos);
        check_strict = true;
    }
    let mut obs_strict = false;
    if let Some(pos) = args.iter().position(|a| a == "--obs-strict") {
        args.remove(pos);
        obs_strict = true;
    }
    if let Some(pos) = args.iter().position(|a| a == "--check-manifest") {
        let path = args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--check-manifest needs a manifest path");
            std::process::exit(2);
        });
        check_manifest(&path, check_strict);
    }
    if let Some(pos) = args.iter().position(|a| a == "--obs-diff") {
        let baseline = args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--obs-diff needs <baseline> <current> metrics.json paths");
            std::process::exit(2);
        });
        let current = args.get(pos + 2).cloned().unwrap_or_else(|| {
            eprintln!("--obs-diff needs <baseline> <current> metrics.json paths");
            std::process::exit(2);
        });
        obs_diff(&baseline, &current, obs_strict);
    }
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        let dir = args
            .get(pos + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "results".to_string());
        validate(&dir);
    }
    // `--deadline-s` / `--event-budget` are parsed before the `--repro`
    // dispatch so a replay inherits a tightened deadline.
    // Both track "was the flag given" (`None` = flag absent) because the
    // campaign supervisor and the stress harness have *different* built-in
    // defaults that must not clobber each other.
    let mut deadline_s: Option<f64> = None;
    if let Some(pos) = args.iter().position(|a| a == "--deadline-s") {
        args.remove(pos);
        let secs: f64 = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .filter(|&s: &f64| s > 0.0 && s.is_finite())
            .unwrap_or_else(|| {
                eprintln!("--deadline-s needs a positive number of seconds");
                std::process::exit(2);
            });
        args.remove(pos);
        deadline_s = Some(secs);
    }
    let mut event_budget: Option<u64> = None;
    if let Some(pos) = args.iter().position(|a| a == "--event-budget") {
        args.remove(pos);
        let n: u64 = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            // u64::MAX is the budget plane's "disarmed" sentinel; a real
            // budget must stay below it.
            .filter(|n| (1..u64::MAX).contains(n))
            .unwrap_or_else(|| {
                eprintln!("--event-budget needs a positive event count");
                std::process::exit(2);
            });
        args.remove(pos);
        event_budget = Some(n);
    }
    if let Some(pos) = args.iter().position(|a| a == "--repro") {
        let path = args.get(pos + 1).cloned().unwrap_or_else(|| {
            eprintln!("--repro needs a reproducer file path");
            std::process::exit(2);
        });
        let deadline = std::time::Duration::from_secs_f64(deadline_s.unwrap_or(120.0));
        replay_repro(&path, deadline);
    }
    let mut strict = false;
    if let Some(pos) = args.iter().position(|a| a == "--strict") {
        args.remove(pos);
        strict = true;
    }
    let mut seed = CAMPAIGN_SEED;
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        args.remove(pos);
        seed = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--seed needs an integer");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--cc") {
        args.remove(pos);
        let name = args
            .get(pos)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("--cc needs a controller name (bbr or nada)");
                std::process::exit(2);
            });
        args.remove(pos);
        let algo = fiveg_transport::tcp::CcAlgo::parse(&name)
            .filter(|a| a.is_rate_based())
            .unwrap_or_else(|| {
                eprintln!("--cc: unknown or non-rate-based controller `{name}` (want bbr or nada)");
                std::process::exit(2);
            });
        experiments::bonded::set_cc(algo);
        if algo != fiveg_transport::tcp::CcAlgo::Nada {
            eprintln!(
                "--cc {name}: bonded-uplink will diverge from the committed golden \
                 (the default controller is nada)"
            );
        }
    }
    let mut out_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        args.remove(pos);
        let dir = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--out needs a directory");
            std::process::exit(2);
        });
        args.remove(pos);
        let path = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&path) {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(2);
        }
        out_dir = Some(path);
    }
    let mut scenario: Option<FaultScenario> = None;
    if let Some(pos) = args.iter().position(|a| a == "--chaos") {
        args.remove(pos);
        let name = args
            .get(pos)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("--chaos needs a scenario name; available scenarios:");
                print_scenarios();
                std::process::exit(2);
            });
        args.remove(pos);
        scenario = Some(FaultScenario::by_name(&name).unwrap_or_else(|| {
            eprintln!("unknown scenario: {name}; available scenarios:");
            print_scenarios();
            std::process::exit(2);
        }));
    }
    let mut resume = false;
    if let Some(pos) = args.iter().position(|a| a == "--resume") {
        args.remove(pos);
        resume = true;
        if out_dir.is_none() {
            eprintln!("--resume needs --out (the manifest lives there)");
            std::process::exit(2);
        }
    }
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        args.remove(pos);
        jobs = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    let mut no_shard = false;
    if let Some(pos) = args.iter().position(|a| a == "--no-shard") {
        args.remove(pos);
        no_shard = true;
    }
    let mut profile = false;
    if let Some(pos) = args.iter().position(|a| a == "--profile") {
        args.remove(pos);
        profile = true;
        if !fiveg_simcore::telemetry::compiled() {
            eprintln!(
                "warning: built without the `telemetry` feature — \
                 --profile will show no spans"
            );
        }
    }
    let mut bench_baseline: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--bench-baseline") {
        args.remove(pos);
        let path = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--bench-baseline needs a BENCH_campaign.json path");
            std::process::exit(2);
        });
        args.remove(pos);
        bench_baseline = Some(PathBuf::from(path));
    }
    let mut bench_strict = false;
    if let Some(pos) = args.iter().position(|a| a == "--bench-strict") {
        args.remove(pos);
        bench_strict = true;
        if bench_baseline.is_none() {
            eprintln!("--bench-strict needs --bench-baseline <path> to compare against");
            std::process::exit(2);
        }
    }
    let mut bench_out: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--bench-out") {
        args.remove(pos);
        let path = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--bench-out needs a file path");
            std::process::exit(2);
        });
        args.remove(pos);
        let path = PathBuf::from(path);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(2);
            }
        }
        bench_out = Some(path);
    }
    let mut telemetry_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--telemetry") {
        args.remove(pos);
        let dir = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--telemetry needs a directory");
            std::process::exit(2);
        });
        args.remove(pos);
        let path = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&path) {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(2);
        }
        if !fiveg_simcore::telemetry::compiled() {
            eprintln!(
                "warning: built without the `telemetry` feature — \
                 telemetry files will be empty"
            );
        }
        telemetry_dir = Some(path);
    }
    let mut obs_dir: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--obs") {
        args.remove(pos);
        let dir = args.get(pos).cloned().unwrap_or_else(|| {
            eprintln!("--obs needs a directory");
            std::process::exit(2);
        });
        args.remove(pos);
        let path = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&path) {
            eprintln!("cannot create {}: {e}", path.display());
            std::process::exit(2);
        }
        if !fiveg_simcore::telemetry::compiled() {
            eprintln!(
                "warning: built without the `telemetry` feature — \
                 observatory files will be empty"
            );
        }
        obs_dir = Some(path);
    }

    // Stress flags: parsed after the shared flags (`--out`, `--jobs`) so
    // the harness inherits them, dispatched before the campaign path.
    let mut stress_cases: Option<usize> = None;
    if let Some(pos) = args.iter().position(|a| a == "--stress") {
        args.remove(pos);
        stress_cases = Some(
            args.get(pos)
                .and_then(|s| s.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--stress needs a positive case count");
                    std::process::exit(2);
                }),
        );
        args.remove(pos);
    }
    let mut stress_seed = CAMPAIGN_SEED;
    if let Some(pos) = args.iter().position(|a| a == "--stress-seed") {
        args.remove(pos);
        stress_seed = args
            .get(pos)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("--stress-seed needs an integer");
                std::process::exit(2);
            });
        args.remove(pos);
    }
    let mut stress_scenario: Option<String> = None;
    if let Some(pos) = args.iter().position(|a| a == "--stress-scenario") {
        args.remove(pos);
        let name = args
            .get(pos)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("--stress-scenario needs a scenario name; available scenarios:");
                print_scenarios();
                std::process::exit(2);
            });
        args.remove(pos);
        if FaultScenario::by_name(&name).is_none() {
            eprintln!("unknown scenario: {name}; available scenarios:");
            print_scenarios();
            std::process::exit(2);
        }
        stress_scenario = Some(name);
    }
    let mut stress_canary = false;
    if let Some(pos) = args.iter().position(|a| a == "--stress-canary") {
        args.remove(pos);
        stress_canary = true;
    }
    if let Some(cases) = stress_cases {
        let mut cfg = stress::StressConfig {
            cases,
            seed: stress_seed,
            scenario: stress_scenario,
            canary: stress_canary,
            jobs,
            ..stress::StressConfig::default()
        };
        if let Some(secs) = deadline_s {
            cfg.deadline = std::time::Duration::from_secs_f64(secs);
        }
        if let Some(budget) = event_budget {
            cfg.max_budget = budget;
        }
        let out = out_dir.unwrap_or_else(|| PathBuf::from("results"));
        run_stress_mode(&cfg, &out);
    }

    let registry = experiments::registry();
    if args.is_empty() {
        println!("available experiments (run `figures all` or name them):");
        for (id, _) in &registry {
            println!("  {id}");
        }
        println!("fault scenarios for --chaos:");
        for name in FaultScenario::names() {
            println!("  {name}");
        }
        return;
    }

    let entries: Vec<(&'static str, experiments::Experiment)> = if args.iter().any(|a| a == "all") {
        registry
    } else {
        args.iter()
            .map(|a| {
                registry
                    .iter()
                    .find(|(id, _)| id == a)
                    .copied()
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment: {a}");
                        std::process::exit(2);
                    })
            })
            .collect()
    };

    let scenario_name = scenario.as_ref().map(|s| s.name.clone());
    let mut supervisor = match scenario {
        Some(sc) => Supervisor::with_scenario(sc),
        None => Supervisor::default(),
    };
    supervisor.telemetry = telemetry_dir.is_some() || obs_dir.is_some() || profile;
    supervisor.shard = !no_shard;
    if let Some(secs) = deadline_s {
        supervisor.deadline = std::time::Duration::from_secs_f64(secs);
    }
    if let Some(budget) = event_budget {
        supervisor.event_budget = budget;
    }
    // Graceful interrupt: the first SIGINT/SIGTERM cancels in-flight
    // attempts and turns every experiment not yet started into an
    // immediate no-op; the manifest then records all of them as
    // `interrupted` rows for `--resume` to pick up.
    supervisor.interrupt = Some(fiveg_bench::signal::install());

    let prior: HashMap<String, ManifestEntry> = match (&out_dir, resume) {
        (Some(dir), true) => resumable_entries(dir, seed, scenario_name.as_deref()),
        _ => HashMap::new(),
    };

    // Resumed rows are settled *before* the work queue exists: they are
    // pre-filled into their registry-order slots and the workers only ever
    // see the experiments that still need to run.
    let mut slots: Vec<Option<ManifestEntry>> = vec![None; entries.len()];
    let mut work: Vec<(&'static str, experiments::Experiment)> = Vec::new();
    let mut work_to_slot: Vec<usize> = Vec::new();
    for (i, &(id, exp)) in entries.iter().enumerate() {
        match prior.get(id) {
            Some(done) => {
                println!("{id}: resumed — completed ok in a previous run");
                slots[i] = Some(done.clone());
            }
            None => {
                work.push((id, exp));
                work_to_slot.push(i);
            }
        }
    }

    let rewrite_manifest = |slots: &[Option<ManifestEntry>], dir: &Path| {
        let done: Vec<ManifestEntry> = slots.iter().flatten().cloned().collect();
        let manifest = runner::manifest_from_entries(&done, seed, scenario_name.as_deref());
        write_or_die(&dir.join("manifest.json"), &manifest.render());
    };
    if let Some(dir) = &out_dir {
        if !slots.iter().all(Option::is_none) {
            rewrite_manifest(&slots, dir);
        }
    }

    let campaign_t0 = Instant::now();
    let slots = Mutex::new(slots);
    let (outcomes, worker_busy_s) =
        supervisor.run_registry_jobs_timed(&work, seed, jobs, |wi, outcome| {
            // The lock also serializes stdout/stderr and the manifest rewrite,
            // so interleaved workers cannot tear a report or a manifest write.
            let mut slots = slots.lock().expect("slots lock");
            if outcome.interrupted() {
                // No report file for an interrupted row: `--resume` re-runs
                // it, and a half-baked `<id>.txt` must never shadow the
                // re-run's real one.
                eprintln!(
                    "{}: interrupted — {}",
                    outcome.id,
                    outcome.note.as_deref().unwrap_or("campaign stopped")
                );
            } else {
                println!("{}", outcome.report.render());
                if outcome.degraded() {
                    eprintln!(
                        "warning: {} degraded after {} attempt(s): {}",
                        outcome.id,
                        outcome.attempts,
                        outcome.note.as_deref().unwrap_or("unknown failure")
                    );
                }
                if let Some(dir) = &out_dir {
                    write_or_die(
                        &dir.join(format!("{}.txt", outcome.id)),
                        &outcome.report.render(),
                    );
                }
            }
            slots[work_to_slot[wi]] = Some(ManifestEntry::from_outcome(outcome));
            // Rewrite the manifest after every experiment: a kill mid-campaign
            // leaves a parseable record of exactly the work that finished, which
            // is what `--resume` picks up.
            if let Some(dir) = &out_dir {
                rewrite_manifest(&slots, dir);
            }
        });
    let campaign_wall_s = campaign_t0.elapsed().as_secs_f64();
    let was_interrupted = supervisor.interrupted();

    // Telemetry export: per-experiment sim-time artifacts (deterministic),
    // then the campaign summary (the only file with wall-clock numbers).
    if let Some(dir) = &telemetry_dir {
        let mut total = AttemptTelemetry::default();
        let mut stats = telexport::RunnerStats {
            experiments: Vec::new(),
            worker_busy_s,
            campaign_wall_s,
        };
        for outcome in &outcomes {
            let telem = outcome.telemetry.clone().unwrap_or_default();
            write_or_die(
                &dir.join(format!("{}.jsonl", outcome.id)),
                &telexport::jsonl(&telem),
            );
            write_or_die(
                &dir.join(format!("{}.trace.json", outcome.id)),
                &telexport::chrome_trace(outcome.id, &telem),
            );
            total.merge_aggregates(&telem);
            stats
                .experiments
                .push((outcome.id.to_string(), outcome.wall_s));
        }
        write_or_die(
            &dir.join("telemetry.txt"),
            &telexport::summary(&total, &stats),
        );
        println!(
            "wrote telemetry for {} experiments to {}",
            outcomes.len(),
            dir.display()
        );
    }

    let rows: Vec<ManifestEntry> = slots
        .into_inner()
        .expect("slots lock")
        .into_iter()
        .map(|s| s.expect("every registry entry ran or resumed"))
        .collect();
    let degraded = rows
        .iter()
        .filter(|r| r.status == RunStatus::Degraded)
        .count();

    if was_interrupted {
        let interrupted = rows
            .iter()
            .filter(|r| r.status == RunStatus::Interrupted)
            .count();
        let finished = rows.len() - interrupted;
        eprintln!(
            "interrupted: {finished} experiment(s) finished, {interrupted} interrupted \
             (cancelled in flight or never started){}",
            match &out_dir {
                Some(dir) => format!(
                    " — resume with `figures --resume --out {} ...`",
                    dir.display()
                ),
                None => String::new(),
            }
        );
        let leaked = runner::leaked_threads();
        if leaked > 0 {
            eprintln!(
                "warning: {leaked} attempt thread(s) ignored cancellation and were \
                 abandoned (leaked)"
            );
        }
        // Skip the bench report and resilience table: both summarize a
        // *complete* campaign, and the resumed run rewrites them from the
        // full row set anyway.
        std::process::exit(fiveg_bench::signal::INTERRUPT_EXIT_CODE);
    }

    // Observatory export: the campaign metrics store, human dashboard, and
    // collapsed-stack flamegraphs — all pure sim-time data, byte-identical
    // across reruns, `--jobs N`, and `--no-shard`. Placed after the
    // interrupt exit above: a partial campaign must never write a partial
    // (yet plausible-looking) metrics baseline.
    if let Some(dir) = &obs_dir {
        let per: Vec<(String, AttemptTelemetry)> = outcomes
            .iter()
            .map(|o| (o.id.to_string(), o.telemetry.clone().unwrap_or_default()))
            .collect();
        if per.len() != entries.len() {
            eprintln!(
                "warning: --obs: {} of {} experiments were resumed without telemetry — \
                 the observatory covers only the rows that ran this campaign",
                entries.len() - per.len(),
                entries.len()
            );
        }
        let metrics = observe::campaign_metrics(seed, scenario_name.as_deref(), &per);
        write_or_die(&dir.join("metrics.json"), &metrics.render());
        write_or_die(
            &dir.join("observatory.txt"),
            &observe::observatory_txt(seed, scenario_name.as_deref(), &per),
        );
        let mut campaign: BTreeMap<String, u64> = BTreeMap::new();
        for (id, telem) in &per {
            let map = observe::folded_map(telem);
            write_or_die(
                &dir.join(format!("{id}.folded")),
                &observe::render_folded(&map),
            );
            observe::merge_folded(&mut campaign, &map);
        }
        write_or_die(
            &dir.join("campaign.folded"),
            &observe::render_folded(&campaign),
        );
        println!(
            "wrote campaign observatory ({} experiments) to {}",
            per.len(),
            dir.display()
        );
    }

    if let Some(path) = &bench_out {
        let report =
            runner::bench_report(&rows, seed, scenario_name.as_deref(), jobs, campaign_wall_s);
        write_or_die(path, &report.render());
        println!("wrote campaign bench report to {}", path.display());
    }

    if profile {
        print!("{}", profile_summary(&outcomes, campaign_wall_s));
    }

    if let Some(path) = &bench_baseline {
        let wall_by_id: HashMap<String, f64> = outcomes
            .iter()
            .map(|o| (o.id.to_string(), o.wall_s))
            .collect();
        let regressions = compare_bench_baseline(&rows, &wall_by_id, path);
        if regressions > 0 {
            eprintln!(
                "--bench-baseline: {regressions} wall-clock regression(s) vs {}",
                path.display()
            );
            if bench_strict {
                std::process::exit(1);
            }
        }
    }

    if let Some(name) = scenario_name.as_deref() {
        let table = resilience_table(&rows, name, seed);
        println!("{table}");
        if let Some(dir) = &out_dir {
            write_or_die(&dir.join("resilience.txt"), &table);
        }
    }

    // Guard-plane findings go to stderr only — never into any artifact,
    // which must stay byte-identical with the plane on or off.
    let total_violations: u64 = outcomes.iter().map(|o| o.guards.violation_count()).sum();
    if total_violations > 0 {
        eprintln!("warning: guard plane recorded {total_violations} invariant violation(s):");
        for o in &outcomes {
            if let Some(v) = o.guards.violations.first() {
                eprintln!(
                    "  {}: {} violation(s), first: {}",
                    o.id,
                    o.guards.violation_count(),
                    v.signature()
                );
            }
        }
    }

    let leaked = runner::leaked_threads();
    if leaked > 0 {
        eprintln!(
            "warning: {leaked} attempt thread(s) ignored cancellation and were \
             abandoned (leaked) this campaign"
        );
    }

    if degraded > 0 {
        eprintln!("{degraded}/{} experiments degraded", rows.len());
        if strict {
            std::process::exit(1);
        }
    }
}
