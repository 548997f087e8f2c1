//! The supervised experiment runner: chaos-tolerant campaign execution.
//!
//! `figures all` regenerates ~40 experiments in sequence; one panicking,
//! wedged, or runaway experiment must not take the campaign down. The
//! [`Supervisor`] runs each experiment on its own thread with:
//!
//! * an optional ambient [`FaultScenario`] installed for the thread (the
//!   deterministic fault plane of `fiveg_simcore::faults`),
//! * an armed event budget (`fiveg_simcore::budget`) so runaway loops die
//!   by panic instead of spinning forever,
//! * a cooperative cancellation token (`fiveg_simcore::cancel`) observed
//!   from the budget hot path, so a deadline, a progress-watchdog stall,
//!   or a campaign interrupt unwinds the attempt instead of abandoning
//!   its thread,
//! * `catch_unwind` around the experiment body,
//! * a wall-clock deadline and a no-progress watchdog enforced by a
//!   supervising poll loop, escalating cancel → grace period →
//!   abandon-with-leak-report,
//! * one retry with a deterministically perturbed seed.
//!
//! An experiment that still fails yields a synthesized [`Report`] marked
//! `DEGRADED`, so every other experiment's output is written regardless.
//! A campaign interrupt (SIGINT/SIGTERM via [`Supervisor::interrupt`])
//! instead yields `INTERRUPTED` rows that `--resume` re-runs.
//!
//! Whole experiments, shards and stress cases all run through the same
//! attempt executor ([`Supervisor::execute`]); whole experiments and
//! shards share one retry loop on top of it.

use crate::experiments::Experiment;
use crate::json::Json;
use crate::report::Report;
use crate::shard::{self, ShardableExperiment};
use fiveg_simcore::cancel::{self, CancelToken};
use fiveg_simcore::faults::{FaultScenario, FaultSchedule};
use fiveg_simcore::guard::{self, AttemptGuards, GuardPolicy};
use fiveg_simcore::recovery::{self, RecoveryEvent, RecoverySummary};
use fiveg_simcore::telemetry::{self, AttemptTelemetry};
use fiveg_simcore::{ambient, budget, RngStream};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Attempt threads abandoned because they never answered a cancellation
/// request within the grace period (process lifetime total). A healthy
/// campaign keeps this at zero; the `figures` CLI reports a non-zero
/// count on stderr at campaign end.
static LEAKED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Attempt threads abandoned (leaked) so far in this process.
pub fn leaked_threads() -> usize {
    LEAKED_THREADS.load(Ordering::Relaxed)
}

/// The note of a run the campaign interrupt stopped before its first
/// attempt.
const NOT_STARTED: &str = "interrupted before start";

/// How one supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The experiment produced its report (possibly on the retry).
    Ok,
    /// Every attempt failed; the report is a synthesized placeholder.
    Degraded,
    /// A campaign interrupt (SIGINT/SIGTERM) cancelled the run before it
    /// could finish; `--resume` re-runs it. Not a failure of the
    /// experiment itself.
    Interrupted,
}

impl RunStatus {
    /// Manifest string for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Degraded => "degraded",
            RunStatus::Interrupted => "interrupted",
        }
    }

    /// Parses a manifest status string.
    pub fn parse(s: &str) -> Option<RunStatus> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "degraded" => Some(RunStatus::Degraded),
            "interrupted" => Some(RunStatus::Interrupted),
            _ => None,
        }
    }
}

/// The outcome of one supervised experiment.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Experiment id.
    pub id: &'static str,
    /// Final status.
    pub status: RunStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Failure note from the last failed attempt, if any attempt failed.
    pub note: Option<String>,
    /// The experiment's report, or a `DEGRADED` placeholder.
    pub report: Report,
    /// Recovery events emitted by the stack's self-healing hooks during the
    /// successful attempt (empty without a fault scenario, and for degraded
    /// runs).
    pub recovery: Vec<RecoveryEvent>,
    /// Wall-clock spent on this experiment across all attempts, in seconds.
    /// Feeds the campaign perf baseline (`BENCH_campaign.json`); never
    /// persisted into `manifest.json`, which must stay byte-identical
    /// across serial, parallel, and resumed runs.
    pub wall_s: f64,
    /// Simulation events charged against the budget by the successful
    /// attempt (0 for degraded runs and for experiments whose hot loops
    /// don't charge the budget).
    pub events: u64,
    /// Telemetry drained from the successful attempt, when the supervisor
    /// ran with [`Supervisor::telemetry`] on (`None` otherwise, and for
    /// degraded runs). Like `wall_s`/`events`, this never reaches
    /// `manifest.json` — the `figures` CLI renders it into its own files.
    pub telemetry: Option<AttemptTelemetry>,
    /// Invariant-guard records drained from the successful attempt (empty
    /// for degraded runs, when the supervisor runs with
    /// [`Supervisor::guards`] `None`, or when the `guards` feature is
    /// compiled out). In-memory only — violations are surfaced on stderr
    /// and by the stress harness, never persisted into `manifest.json`,
    /// which must stay byte-identical with the plane on or off.
    pub guards: AttemptGuards,
}

impl RunOutcome {
    /// True iff the run is degraded.
    pub fn degraded(&self) -> bool {
        self.status == RunStatus::Degraded
    }

    /// True iff the run was cut short by a campaign interrupt.
    pub fn interrupted(&self) -> bool {
        self.status == RunStatus::Interrupted
    }
}

/// Supervision policy for a campaign.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Fault scenario installed on each experiment thread (`None` = the
    /// plane stays uninstalled and the default path is untouched).
    pub scenario: Option<FaultScenario>,
    /// Event budget armed per attempt.
    pub event_budget: u64,
    /// Wall-clock deadline per attempt.
    pub deadline: Duration,
    /// Retries after the first failed attempt, each with a perturbed seed.
    pub retries: u32,
    /// Install the telemetry collector on each attempt thread and carry
    /// the drained [`AttemptTelemetry`] in the outcome. Off by default:
    /// with it off the plane is never installed and campaign output is
    /// byte-identical to an uninstrumented build.
    pub telemetry: bool,
    /// Guard-plane policy installed on each attempt thread; `None` leaves
    /// the invariant collector uninstalled. Defaults to
    /// [`GuardPolicy::Record`]: checks run and violations are drained into
    /// the outcome, but (since hooks never mutate simulation state) every
    /// artifact stays byte-identical to a run with the plane off.
    pub guards: Option<GuardPolicy>,
    /// How long a cancelled attempt gets to unwind and report before the
    /// supervisor gives up and abandons its thread (leak of last resort).
    pub grace: Duration,
    /// Progress-watchdog window: an attempt that has charged budget
    /// events before but charges none for this long is classified
    /// *wedged* and cancelled early, before the full deadline. Attempts
    /// that never charge events are exempt (some experiments legitimately
    /// run long without touching the budget) — the deadline covers them.
    pub stall: Duration,
    /// Campaign interrupt flag (typically the SIGINT/SIGTERM handler's
    /// static). When it flips, in-flight attempts are cancelled, retries
    /// are skipped, and runs report [`RunStatus::Interrupted`]; every run
    /// the pool starts afterwards returns at once, noted `interrupted
    /// before start`.
    pub interrupt: Option<&'static AtomicBool>,
    /// Fan the shards of [`crate::shard::shardable`] experiments out to the
    /// pool as independent work units (on by default). Off, each sharded
    /// experiment runs its shards sequentially inside its own registry
    /// slot. Either way the *decomposition* is identical — same per-shard
    /// plane installs, same order-fixed merge — so every artifact is
    /// byte-identical between the two; the flag only changes scheduling
    /// granularity.
    pub shard: bool,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            scenario: None,
            // Generous: the heaviest experiment charges tens of millions of
            // events; only a runaway loop reaches billions.
            event_budget: 2_000_000_000,
            deadline: Duration::from_secs(120),
            retries: 1,
            telemetry: false,
            guards: Some(GuardPolicy::Record),
            grace: Duration::from_secs(2),
            stall: Duration::from_secs(30),
            interrupt: None,
            shard: true,
        }
    }
}

impl Supervisor {
    /// A supervisor injecting `scenario` into every experiment.
    pub fn with_scenario(scenario: FaultScenario) -> Self {
        Supervisor {
            scenario: Some(scenario),
            ..Self::default()
        }
    }

    /// The seed used for attempt `attempt` (0-based) of experiment `id`:
    /// attempt 0 uses the campaign seed verbatim, retries perturb it through
    /// a named stream so the retry world is different but reproducible.
    pub fn attempt_seed(&self, id: &str, seed: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            seed
        } else {
            RngStream::new(seed, &format!("runner/retry/{id}/{attempt}")).next_u64()
        }
    }

    /// True iff the campaign interrupt flag has flipped.
    pub fn interrupted(&self) -> bool {
        self.interrupt.is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Runs one experiment under supervision. Experiments with a shard
    /// declaration run shard-by-shard (sequentially here; the pool
    /// scheduler fans the same shards out as independent units) and their
    /// outcome is the order-fixed merge of the shard runs.
    pub fn run_one(&self, id: &'static str, f: Experiment, seed: u64) -> RunOutcome {
        if let Some(spec) = shard::find(id) {
            return self.run_sharded(&spec, seed);
        }
        // A whole experiment's planes are keyed by its data seed.
        self.retry(id, seed, format!("exp-{id}"), |s| (s, move || f(s)))
            .into_outcome(id)
    }

    /// Runs every shard of a sharded experiment sequentially, then merges.
    /// The pooled scheduler instead claims each shard as its own work unit
    /// and performs the identical merge — the two paths share
    /// [`Supervisor::run_shard`] and [`Supervisor::merge_shard_runs`], so
    /// their artifacts are byte-equal by construction.
    pub fn run_sharded(&self, spec: &ShardableExperiment, seed: u64) -> RunOutcome {
        let shards: Vec<ShardRun> = (0..spec.shards)
            .map(|s| self.run_shard(spec, seed, s))
            .collect();
        self.merge_shard_runs(spec, seed, shards)
    }

    /// One shard's supervised run, through the same retry loop as a whole
    /// experiment. The shard *data* seed is the attempt seed verbatim (so
    /// shard bodies compute exactly what the monolithic experiment
    /// computed); only the ambient planes are keyed by
    /// [`crate::shard::shard_plane_seed`], giving each shard a distinct,
    /// scheduling-independent fault world.
    pub fn run_shard(&self, spec: &ShardableExperiment, seed: u64, shard_idx: usize) -> ShardRun {
        let (id, run) = (spec.id, spec.run);
        let s = self.retry(id, seed, format!("exp-{id}-s{shard_idx}"), |a| {
            (shard::shard_plane_seed(a, id, shard_idx), move || {
                run(a, shard_idx)
            })
        });
        ShardRun {
            shard: shard_idx,
            status: s.status,
            attempts: s.attempts,
            note: s.note,
            values: s.value.unwrap_or_default(),
            recovery: s.drained.recovery,
            wall_s: s.wall_s,
            events: s.drained.events,
            telemetry: s.drained.telemetry,
            guards: s.drained.guards,
        }
    }

    /// Reduces one experiment's shard runs (indexed by shard) into a single
    /// [`RunOutcome`], deterministically: the report comes from the
    /// experiment's order-fixed `merge` reducer over the raw shard values;
    /// recovery events and telemetry concatenate in shard order (span ids
    /// re-based so the merged stream keeps unique ids); events sum;
    /// attempts take the max. Any interrupted shard makes the whole run
    /// interrupted; otherwise any degraded shard degrades it (first failing
    /// shard's note wins, prefixed with its index).
    pub fn merge_shard_runs(
        &self,
        spec: &ShardableExperiment,
        seed: u64,
        shards: Vec<ShardRun>,
    ) -> RunOutcome {
        let (id, n) = (spec.id, spec.shards);
        let wall_s: f64 = shards.iter().map(|s| s.wall_s).sum();
        let attempts = shards.iter().map(|s| s.attempts).max().unwrap_or(1);
        let shard_note = |s: &ShardRun| {
            let note = s.note.as_deref()?;
            Some(format!("shard {}/{n}: {note}", s.shard))
        };
        for (status, fallback) in [
            (RunStatus::Interrupted, NOT_STARTED),
            (RunStatus::Degraded, ""),
        ] {
            if shards.iter().any(|s| s.status == status) {
                let note = shards
                    .iter()
                    .filter(|s| s.status == status)
                    .find_map(shard_note)
                    .unwrap_or_else(|| fallback.to_string());
                return Settled::failed(status, attempts, note, wall_s).into_outcome(id);
            }
        }
        let parts: Vec<Vec<f64>> = shards.iter().map(|s| s.values.clone()).collect();
        let mut drained = Drained {
            recovery: shards
                .iter()
                .flat_map(|s| s.recovery.iter().cloned())
                .collect(),
            events: shards.iter().map(|s| s.events).sum(),
            telemetry: self
                .telemetry
                .then(|| merge_shard_telemetry(shards.iter().filter_map(|s| s.telemetry.as_ref()))),
            guards: AttemptGuards::default(),
        };
        for s in &shards {
            let guards = &mut drained.guards;
            guards
                .violations
                .extend(s.guards.violations.iter().cloned());
            guards.dropped += s.guards.dropped;
            guards.checks += s.guards.checks;
        }
        Settled {
            status: RunStatus::Ok,
            attempts,
            note: shards.iter().find_map(shard_note),
            wall_s,
            value: Some((spec.merge)(seed, &parts)),
            drained,
        }
        .into_outcome(id)
    }

    /// Runs every `(id, experiment)` entry on a pool of `jobs` worker
    /// threads pulling from a shared queue, collecting outcomes **in entry
    /// order** regardless of completion order, plus per-worker busy time
    /// (seconds each worker spent on its units, index = worker; wall-clock
    /// telemetry that never reaches a deterministic artifact).
    ///
    /// Determinism contract: each experiment's world is a pure function of
    /// `(id, campaign seed, attempt)` — [`Supervisor::attempt_seed`] draws
    /// from no shared RNG, and every attempt installs its own thread-local
    /// fault/recovery/budget planes on a fresh attempt thread
    /// ([`fiveg_simcore::ambient::install_schedule`]). Workers therefore
    /// cannot observe each other, and the returned vector — and any
    /// manifest rendered from it — is byte-identical to a serial run.
    ///
    /// Every entry gets an outcome, even under interrupt: once
    /// [`Supervisor::interrupt`] flips, the units the pool still claims
    /// return at once as [`RunStatus::Interrupted`].
    ///
    /// Each entry expands into its work units — one unit for an unsharded
    /// experiment, one per shard for a sharded one (when
    /// [`Supervisor::shard`] is on) — scheduled on one work-stealing pool,
    /// so shards of a long experiment interleave with other experiments on
    /// the same workers. A sharded experiment's outcome is merged by
    /// [`Supervisor::merge_shard_runs`] when its *last* shard completes.
    ///
    /// `on_done(i, outcome)` fires as each entry finishes (completion
    /// order, possibly concurrently with other workers finishing — the
    /// callback must serialize its own side effects); the campaign driver
    /// uses it for progress output and crash-consistent manifest rewrites.
    pub fn run_registry_jobs_timed<F>(
        &self,
        entries: &[(&'static str, Experiment)],
        seed: u64,
        jobs: usize,
        on_done: F,
    ) -> (Vec<RunOutcome>, Vec<f64>)
    where
        F: Fn(usize, &RunOutcome) + Sync,
    {
        enum Unit {
            Whole(usize),
            Shard { exp: usize, shard: usize },
        }
        struct Acc {
            spec: ShardableExperiment,
            pieces: Vec<Mutex<Option<ShardRun>>>,
            remaining: AtomicUsize,
        }
        let accs: Vec<Option<Acc>> = entries
            .iter()
            .map(|(id, _)| {
                if !self.shard {
                    return None;
                }
                shard::find(id).map(|spec| Acc {
                    spec,
                    pieces: (0..spec.shards).map(|_| Mutex::new(None)).collect(),
                    remaining: AtomicUsize::new(spec.shards),
                })
            })
            .collect();
        let mut units = Vec::new();
        for (i, acc) in accs.iter().enumerate() {
            match acc {
                Some(acc) => {
                    units.extend((0..acc.spec.shards).map(|s| Unit::Shard { exp: i, shard: s }))
                }
                None => units.push(Unit::Whole(i)),
            }
        }
        let outcomes: Vec<Mutex<Option<RunOutcome>>> =
            entries.iter().map(|_| Mutex::new(None)).collect();
        let finish = |i: usize, outcome: RunOutcome| {
            on_done(i, &outcome);
            *outcomes[i].lock().expect("outcome lock") = Some(outcome);
        };
        let (_, busy) = pool_map(units.len(), jobs, |u| match units[u] {
            Unit::Whole(i) => {
                let (id, f) = entries[i];
                finish(i, self.run_one(id, f, seed));
            }
            Unit::Shard { exp, shard } => {
                let acc = accs[exp].as_ref().expect("shard unit has an accumulator");
                let piece = self.run_shard(&acc.spec, seed, shard);
                *acc.pieces[shard].lock().expect("piece lock") = Some(piece);
                if acc.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last shard in: this worker performs the merge. The
                    // mutexes synchronize the sibling pieces written by
                    // other workers.
                    let shards: Vec<ShardRun> = acc
                        .pieces
                        .iter()
                        .map(|m| {
                            m.lock()
                                .expect("piece lock")
                                .take()
                                .expect("all pieces present at merge")
                        })
                        .collect();
                    finish(exp, self.merge_shard_runs(&acc.spec, seed, shards));
                }
            }
        });
        let outcomes = outcomes
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("outcome lock")
                    .expect("every entry's units ran")
            })
            .collect();
        (outcomes, busy)
    }

    /// The supervised retry loop shared by whole experiments and shards:
    /// up to `1 + retries` attempts, each with its perturbed seed, stopping
    /// at the first success or at a campaign interrupt. `attempt(seed)`
    /// returns the attempt's plane seed and its body.
    fn retry<T, B>(
        &self,
        id: &str,
        seed: u64,
        thread_name: String,
        attempt: impl Fn(u64) -> (u64, B),
    ) -> Settled<T>
    where
        T: Send + 'static,
        B: FnOnce() -> T + Send + std::panic::UnwindSafe + 'static,
    {
        let t0 = Instant::now();
        let mut last_note = String::new();
        for n in 0..=self.retries {
            if self.interrupted() {
                // Interrupt between attempts (or before the first): don't
                // start more work the user asked us to stop.
                let note = if n == 0 {
                    NOT_STARTED.to_string()
                } else {
                    last_note
                };
                return Settled::failed(RunStatus::Interrupted, n, note, secs(t0));
            }
            let (plane_seed, body) = attempt(self.attempt_seed(id, seed, n));
            let schedule = self
                .scenario
                .as_ref()
                .map(|sc| FaultSchedule::generate(plane_seed, sc));
            let done = self.execute(thread_name.clone(), schedule, body);
            match done.result {
                Ok(value) => {
                    return Settled {
                        status: RunStatus::Ok,
                        attempts: n + 1,
                        note: (n > 0).then_some(last_note),
                        wall_s: secs(t0),
                        value: Some(value),
                        drained: done.drained,
                    }
                }
                Err(failure) => {
                    last_note = self.note(&failure);
                    if self.interrupted() {
                        // The attempt died because (or while) the campaign
                        // was interrupted — not the experiment's fault, so
                        // no retry and no DEGRADED verdict.
                        return Settled::failed(RunStatus::Interrupted, n + 1, last_note, secs(t0));
                    }
                }
            }
        }
        Settled::failed(RunStatus::Degraded, self.retries + 1, last_note, secs(t0))
    }

    /// The note a failed attempt leaves in the manifest.
    fn note(&self, failure: &Failure) -> String {
        match failure {
            Failure::Panic(msg) => format!("panicked: {msg}"),
            Failure::Cancelled {
                reason,
                class,
                events,
            } => format!("{reason}; cancelled cooperatively ({class}; {events} events charged at kill)"),
            Failure::Abandoned {
                reason,
                class,
                events,
            } => format!(
                "{reason}; cancel unanswered after {:.1} s grace ({class}; {events} events charged at kill); thread abandoned — leaked",
                self.grace.as_secs_f64()
            ),
            Failure::Died(note) => note.clone(),
        }
    }

    /// One supervised attempt of `body`, the only place an attempt runs:
    /// spawn a fresh thread named `thread_name`, install the ambient planes
    /// there (`schedule`, this supervisor's budget, telemetry and guard
    /// policy, and a deadline-bearing cancellation token), run the body
    /// under `catch_unwind`, drain the planes, and supervise the thread
    /// until it reports or the escalation ladder gives up on it. Whole
    /// experiments pass the schedule generated from their data seed, shards
    /// the one from [`crate::shard::shard_plane_seed`], and the stress
    /// harness a possibly shrunk reproducer's.
    pub(crate) fn execute<T, F>(
        &self,
        thread_name: String,
        schedule: Option<FaultSchedule>,
        body: F,
    ) -> Attempt<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + std::panic::UnwindSafe + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let token = Arc::new(CancelToken::with_deadline(Instant::now() + self.deadline));
        let attempt_token = Arc::clone(&token);
        let (event_budget, telemetry_on, guards) = (self.event_budget, self.telemetry, self.guards);
        let spawned = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || {
                // Thread-locals start clean on a fresh thread; install the
                // fault plane, the recovery collector (only alongside a
                // schedule, so fault-free campaigns report zero recovery
                // events by construction), the telemetry collector (only
                // when the supervisor asks), the invariant guard collector
                // (under the supervisor's policy), arm the budget, and arm
                // the cancellation token — all for this attempt only. They
                // uninstall when `_ambient` drops, and are drained on both
                // outcomes, so a panicked attempt's half-filled collectors
                // never outlive it.
                let _ambient = ambient::install_schedule(
                    schedule,
                    event_budget,
                    telemetry_on,
                    guards,
                    Some(attempt_token),
                );
                let result = std::panic::catch_unwind(body)
                    .map_err(|payload| Failure::Panic(panic_message(payload.as_ref())));
                let drained = Drained {
                    recovery: recovery::drain(),
                    events: budget::consumed().unwrap_or(0),
                    telemetry: telemetry_on.then(telemetry::drain),
                    guards: guard::drain(),
                };
                let _ = tx.send(Attempt { result, drained });
            });
        match spawned {
            Ok(handle) => self.supervise(handle, &rx, &token),
            Err(e) => Attempt::died(format!("spawn failed: {e}")),
        }
    }

    /// The supervising poll loop for one attempt: waits for the result in
    /// short ticks, sampling the token's published progress, and escalates
    /// on the first of interrupt / deadline / watchdog stall.
    fn supervise<T>(
        &self,
        handle: JoinHandle<()>,
        rx: &mpsc::Receiver<Attempt<T>>,
        token: &CancelToken,
    ) -> Attempt<T> {
        let started = Instant::now();
        let deadline_at = started + self.deadline;
        let deadline_reason =
            || format!("deadline exceeded ({:.1} s)", self.deadline.as_secs_f64());
        // Tick fast enough that short test deadlines stay accurate, slow
        // enough that a 120 s campaign deadline costs ~10 wakeups/s.
        let tick = (self.deadline / 4).clamp(Duration::from_millis(5), Duration::from_millis(100));
        let mut last_events: u64 = 0;
        let mut last_change = started;
        loop {
            let wait = tick
                .min(deadline_at.saturating_duration_since(Instant::now()))
                .max(Duration::from_millis(1));
            match rx.recv_timeout(wait) {
                Ok(done) => {
                    let _ = handle.join();
                    // The token's own deadline fired inside the attempt
                    // (its `poll` self-kills) before this loop ticked — the
                    // same cooperative kill the escalation ladder performs,
                    // so report it in the same shape.
                    let class = self.classify(last_events, last_change);
                    let events = token.progress().max(last_events);
                    return done.unwound(deadline_reason, class, events);
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Attempt::died(disconnect_note(handle))
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
            let now = Instant::now();
            let progress = token.progress();
            if progress != last_events {
                last_events = progress;
                last_change = now;
            }
            let reason = if self.interrupted() {
                Some("interrupted".to_string())
            } else if now >= deadline_at {
                Some(deadline_reason())
            } else if last_events > 0 && now.duration_since(last_change) >= self.stall {
                // Only experiments that have charged events can be declared
                // wedged early: some legitimately run long without touching
                // the budget, and the deadline still covers those.
                Some(format!(
                    "stalled: no progress for {:.1} s",
                    self.stall.as_secs_f64()
                ))
            } else {
                None
            };
            if let Some(reason) = reason {
                return self.escalate(reason, handle, rx, token, last_events, last_change);
            }
        }
    }

    /// Classification for the degraded report: an attempt that charged
    /// events within the stall window is *slow* (still progressing, just
    /// not fast enough); one that stopped charging — or never charged —
    /// is *wedged*.
    fn classify(&self, last_events: u64, last_change: Instant) -> &'static str {
        if last_events > 0 && last_change.elapsed() < self.stall {
            "slow"
        } else {
            "wedged"
        }
    }

    /// The escalation ladder once a kill is warranted: cancel the token,
    /// give the attempt a grace period to unwind and report, and only then
    /// abandon the thread (counting the leak).
    fn escalate<T>(
        &self,
        reason: String,
        handle: JoinHandle<()>,
        rx: &mpsc::Receiver<Attempt<T>>,
        token: &CancelToken,
        last_events: u64,
        last_change: Instant,
    ) -> Attempt<T> {
        let class = self.classify(last_events, last_change);
        token.kill(&reason);
        match rx.recv_timeout(self.grace) {
            Ok(done) => {
                // An attempt that crossed the finish line before observing
                // the kill keeps its complete, deterministic result, and
                // one that died of its own panic just as we killed it keeps
                // that (more useful) note.
                let _ = handle.join();
                let events = token.progress().max(last_events);
                done.unwound(|| reason, class, events)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                LEAKED_THREADS.fetch_add(1, Ordering::Relaxed);
                drop(handle);
                let events = token.progress().max(last_events);
                Attempt {
                    result: Err(Failure::Abandoned {
                        reason,
                        class,
                        events,
                    }),
                    drained: Drained::default(),
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Attempt::died(disconnect_note(handle)),
        }
    }
}

/// Seconds since `t0`.
fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// How one supervised attempt failed.
pub(crate) enum Failure {
    /// The body panicked; carries the raw panic message.
    Panic(String),
    /// A kill for `reason` was honoured: the attempt unwound cooperatively
    /// with `events` charged, classified `slow` or `wedged`.
    Cancelled {
        reason: String,
        class: &'static str,
        events: u64,
    },
    /// A kill for `reason` went unanswered through the grace period, so the
    /// thread was abandoned (and counted in [`leaked_threads`]).
    Abandoned {
        reason: String,
        class: &'static str,
        events: u64,
    },
    /// The attempt thread never reported: it failed to spawn, or its result
    /// channel dropped. Carries the full note.
    Died(String),
}

/// Everything drained from an attempt thread's ambient planes.
#[derive(Default)]
pub(crate) struct Drained {
    pub(crate) recovery: Vec<RecoveryEvent>,
    pub(crate) events: u64,
    pub(crate) telemetry: Option<AttemptTelemetry>,
    pub(crate) guards: AttemptGuards,
}

/// One supervised attempt: the payload or how it failed, plus what its
/// planes drained (on either outcome; empty when the thread never
/// reported).
pub(crate) struct Attempt<T> {
    pub(crate) result: Result<T, Failure>,
    pub(crate) drained: Drained,
}

impl<T> Attempt<T> {
    /// An attempt whose thread never reported.
    fn died(note: String) -> Attempt<T> {
        Attempt {
            result: Err(Failure::Died(note)),
            drained: Drained::default(),
        }
    }

    /// Reclassifies a cancellation panic (the body unwinding at a poll
    /// after its token was killed) as a cooperative cancel for `reason`.
    fn unwound(self, reason: impl FnOnce() -> String, class: &'static str, events: u64) -> Self {
        match self.result {
            Err(Failure::Panic(msg)) if cancel::is_cancel_panic(&msg) => Attempt {
                result: Err(Failure::Cancelled {
                    reason: reason(),
                    class,
                    events,
                }),
                drained: self.drained,
            },
            _ => self,
        }
    }
}

/// A payload's supervised run across all its attempts: the one shape both
/// [`RunOutcome`] and [`ShardRun`] are built from.
struct Settled<T> {
    status: RunStatus,
    attempts: u32,
    note: Option<String>,
    wall_s: f64,
    /// The successful attempt's payload (`None` unless `status` is `Ok`).
    value: Option<T>,
    /// What the successful attempt drained (empty otherwise).
    drained: Drained,
}

impl<T> Settled<T> {
    /// A run that ended `Degraded` or `Interrupted` with `note`.
    fn failed(status: RunStatus, attempts: u32, note: String, wall_s: f64) -> Settled<T> {
        Settled {
            status,
            attempts,
            note: Some(note),
            wall_s,
            value: None,
            drained: Drained::default(),
        }
    }
}

impl Settled<Report> {
    /// The experiment outcome, with a placeholder report for a failed run.
    fn into_outcome(self, id: &'static str) -> RunOutcome {
        let report = match self.value {
            Some(report) => report,
            None => failed_report(id, self.status, self.note.as_deref().unwrap_or_default()),
        };
        RunOutcome {
            id,
            status: self.status,
            attempts: self.attempts,
            note: self.note,
            report,
            recovery: self.drained.recovery,
            wall_s: self.wall_s,
            events: self.drained.events,
            telemetry: self.drained.telemetry,
            guards: self.drained.guards,
        }
    }
}

/// The note for a result channel that disconnected without a report: the
/// attempt thread is gone (its sender dropped), so join it and attach how
/// it died — a send-side panic *after* `catch_unwind` (draining planes,
/// serializing the output) carries its payload here, distinguishing it
/// from a genuine silent drop.
fn disconnect_note(handle: JoinHandle<()>) -> String {
    match handle.join() {
        Ok(()) => {
            "experiment thread died without reporting (thread exited cleanly but never sent; \
             result channel dropped)"
                .to_string()
        }
        Err(payload) => format!(
            "experiment thread died without reporting (send-side panicked: {})",
            panic_message(payload.as_ref())
        ),
    }
}

/// Runs `n` independent tasks on a pool of `jobs` worker threads pulling
/// indices from a shared cursor (work-stealing: a worker that lands a long
/// task simply claims fewer indices), collecting results **in index
/// order** regardless of completion order. Also returns per-worker busy
/// time in seconds (wall-clock telemetry only — it must never reach a
/// deterministic artifact). The campaign scheduler and the stress harness
/// both run on this pool; determinism is the caller's contract (each
/// task's result must be a pure function of its index).
pub fn pool_map<T, F>(n: usize, jobs: usize, run: F) -> (Vec<T>, Vec<f64>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let busy: Vec<Mutex<f64>> = (0..workers).map(|_| Mutex::new(0.0)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let next = &next;
            let slots = &slots;
            let busy = &busy;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = Instant::now();
                let out = run(i);
                *busy[w].lock().expect("busy lock") += secs(t0);
                *slots[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every queue index was claimed by a worker")
        })
        .collect();
    let busy = busy
        .into_iter()
        .map(|m| m.into_inner().expect("busy lock"))
        .collect();
    (results, busy)
}

/// One shard's supervised run: the shard-granular [`RunOutcome`], carrying
/// raw values instead of a rendered report (the report exists only after
/// [`Supervisor::merge_shard_runs`]).
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard index within the experiment.
    pub shard: usize,
    /// How this shard's run ended.
    pub status: RunStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Failure note from the last failed attempt, if any attempt failed.
    pub note: Option<String>,
    /// The shard body's raw values (empty unless `status` is `Ok`).
    pub values: Vec<f64>,
    /// Recovery events of the successful attempt.
    pub recovery: Vec<RecoveryEvent>,
    /// Wall-clock across this shard's attempts, seconds.
    pub wall_s: f64,
    /// Budget events charged by the successful attempt.
    pub events: u64,
    /// Telemetry drained from the successful attempt.
    pub telemetry: Option<AttemptTelemetry>,
    /// Guard records drained from the successful attempt.
    pub guards: AttemptGuards,
}

/// Concatenates per-shard telemetry in shard order into one attempt-shaped
/// stream: span events append with their ids re-based past the previous
/// shards' ids (each shard numbers spans from 0, so a plain concat would
/// collide), dropped counts sum, and the sorted aggregates merge through
/// [`AttemptTelemetry::merge_aggregates`].
fn merge_shard_telemetry<'a, I>(parts: I) -> AttemptTelemetry
where
    I: Iterator<Item = &'a AttemptTelemetry>,
{
    let mut merged = AttemptTelemetry::default();
    let mut id_base = 0u64;
    for part in parts {
        let mut max_id = None;
        for ev in &part.events {
            let mut ev = *ev;
            max_id = Some(max_id.map_or(ev.id, |m: u64| m.max(ev.id)));
            ev.id += id_base;
            merged.events.push(ev);
        }
        if let Some(m) = max_id {
            id_base += m + 1;
        }
        merged.dropped_events += part.dropped_events;
        merged.merge_aggregates(&AttemptTelemetry {
            events: Vec::new(),
            dropped_events: 0,
            ..part.clone()
        });
    }
    merged
}

/// The raw message of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with non-string payload".to_string())
}

/// The placeholder report of a run that did not produce one: `Degraded`
/// (every attempt failed) or `Interrupted` (a campaign interrupt cut it
/// short). An interrupted row's report is never written to disk as the
/// experiment's artifact — the campaign driver skips report files for
/// interrupted rows so `--resume` re-runs them from scratch.
fn failed_report(id: &'static str, status: RunStatus, note: &str) -> Report {
    let (title, body) = if status == RunStatus::Interrupted {
        (
            "INTERRUPTED — campaign stopped before this experiment completed",
            format!("This experiment was cancelled by a campaign interrupt; rerun with --resume.\ninterrupt: {note}\n"),
        )
    } else {
        (
            "DEGRADED — experiment failed under supervision",
            format!("This experiment did not complete; the rest of the campaign ran on.\nlast failure: {note}\n"),
        )
    };
    Report {
        id,
        title: title.to_string(),
        body,
    }
}

/// One experiment's row in the campaign manifest: the persisted form of a
/// [`RunOutcome`] (the report text lives in its own file; the recovery
/// event stream is persisted as its summary). Round-trips through JSON so
/// `--resume` can rebuild completed rows from a prior manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Experiment id.
    pub id: String,
    /// Final status.
    pub status: RunStatus,
    /// Attempts consumed.
    pub attempts: u32,
    /// Failure note, if any attempt failed.
    pub note: Option<String>,
    /// Aggregated recovery actions of the successful attempt.
    pub recovery: RecoverySummary,
    /// Wall-clock for this experiment, seconds. **In-memory only**: timing
    /// varies run to run, and `manifest.json` must stay byte-identical
    /// across serial/parallel/resumed runs, so this is persisted to
    /// `BENCH_campaign.json` (see [`bench_report`]) instead. Zero for rows
    /// rebuilt from a prior manifest.
    pub wall_s: f64,
    /// Budget events charged by this experiment. In-memory only, like
    /// `wall_s`.
    pub events: u64,
    /// True for rows carried over from a prior manifest by `--resume`
    /// (their timing is unknown, not zero-cost). In-memory only.
    pub resumed: bool,
}

impl ManifestEntry {
    /// The manifest row for a finished outcome.
    pub fn from_outcome(o: &RunOutcome) -> ManifestEntry {
        ManifestEntry {
            id: o.id.to_string(),
            status: o.status,
            attempts: o.attempts,
            note: o.note.clone(),
            recovery: recovery::summarize(&o.recovery),
            wall_s: o.wall_s,
            events: o.events,
            resumed: false,
        }
    }

    /// Serializes this row.
    pub fn to_json(&self) -> Json {
        let r = &self.recovery;
        Json::obj(vec![
            ("id", Json::str(self.id.as_str())),
            ("status", Json::str(self.status.as_str())),
            ("attempts", Json::Num(f64::from(self.attempts))),
            ("note", self.note.as_deref().map_or(Json::Null, Json::str)),
            (
                "recovery",
                Json::obj(vec![
                    ("events", Json::Num(r.events as f64)),
                    ("outage_s", Json::Num(r.outage_s)),
                    ("mean_detect_s", Json::Num(r.mean_detect_s)),
                    ("rebuffer_s", Json::Num(r.rebuffer_s)),
                    ("failovers", Json::Num(r.failovers as f64)),
                    (
                        "by_kind",
                        Json::Obj(
                            r.by_kind
                                .iter()
                                .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Deserializes one manifest row.
    pub fn from_json(v: &Json) -> Result<ManifestEntry, String> {
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("result missing `id`")?
            .to_string();
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .and_then(RunStatus::parse)
            .ok_or_else(|| format!("result `{id}` has a bad `status`"))?;
        let attempts =
            v.get("attempts")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result `{id}` missing `attempts`"))? as u32;
        let note = match v.get("note") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(format!("result `{id}` has a bad `note`")),
        };
        let r = v
            .get("recovery")
            .ok_or_else(|| format!("result `{id}` missing `recovery`"))?;
        let num = |field: &str| {
            r.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result `{id}` recovery missing `{field}`"))
        };
        let by_kind = match r.get("by_kind") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n as usize))
                        .ok_or_else(|| format!("result `{id}` has a bad by_kind count"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(format!("result `{id}` recovery missing `by_kind`")),
        };
        let recovery = RecoverySummary {
            events: num("events")? as usize,
            outage_s: num("outage_s")?,
            mean_detect_s: num("mean_detect_s")?,
            rebuffer_s: num("rebuffer_s")?,
            failovers: num("failovers")? as usize,
            by_kind,
        };
        Ok(ManifestEntry {
            id,
            status,
            attempts,
            note,
            recovery,
            wall_s: 0.0,
            events: 0,
            resumed: true,
        })
    }
}

/// Serializes the campaign perf baseline as `BENCH_campaign.json`: per
/// experiment wall-clock and event throughput plus campaign-level totals.
/// `campaign_wall_s` is the end-to-end wall-clock of the whole campaign
/// (with `jobs > 1` it is smaller than the sum of per-experiment times —
/// `speedup_est` is exactly that ratio, the scheduler's parallel yield).
/// Resumed rows are flagged and excluded from the totals, since their cost
/// was paid by a previous run.
pub fn bench_report(
    entries: &[ManifestEntry],
    seed: u64,
    scenario: Option<&str>,
    jobs: usize,
    campaign_wall_s: f64,
) -> Json {
    let ran: Vec<&ManifestEntry> = entries.iter().filter(|e| !e.resumed).collect();
    let serial_wall_s: f64 = ran.iter().map(|e| e.wall_s).sum();
    let events: u64 = ran.iter().map(|e| e.events).sum();
    let rate = |ev: u64, wall: f64| {
        if wall > 0.0 {
            ev as f64 / wall
        } else {
            0.0
        }
    };
    // Largest-remainder apportionment: per-row rounding of raw shares can
    // make the wall_pct column sum to 99.8 or 100.2; apportioning keeps it
    // exactly 100.0. Resumed rows weigh zero (their cost was paid by a
    // previous run).
    let weights: Vec<f64> = entries
        .iter()
        .map(|e| if e.resumed { 0.0 } else { e.wall_s })
        .collect();
    let wall_pcts = crate::observe::apportion_pct(&weights);
    Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("scenario", scenario.map_or(Json::Null, Json::str)),
        ("jobs", Json::Num(jobs as f64)),
        ("experiments", Json::Num(entries.len() as f64)),
        ("resumed", Json::Num((entries.len() - ran.len()) as f64)),
        ("campaign_wall_s", Json::Num(campaign_wall_s)),
        ("serial_wall_s", Json::Num(serial_wall_s)),
        (
            "speedup_est",
            Json::Num(if campaign_wall_s > 0.0 {
                serial_wall_s / campaign_wall_s
            } else {
                0.0
            }),
        ),
        ("events", Json::Num(events as f64)),
        ("events_per_s", Json::Num(rate(events, campaign_wall_s))),
        (
            "results",
            Json::Arr(
                entries
                    .iter()
                    .zip(&wall_pcts)
                    .map(|(e, &wall_pct)| {
                        // An experiment that never charges the budget has
                        // no meaningful throughput — report null, not a
                        // misleading 0 (which reads as "infinitely slow").
                        let eps = if e.events == 0 {
                            Json::Null
                        } else {
                            Json::Num(rate(e.events, e.wall_s))
                        };
                        Json::obj(vec![
                            ("id", Json::str(e.id.as_str())),
                            ("status", Json::str(e.status.as_str())),
                            ("resumed", Json::Bool(e.resumed)),
                            ("wall_s", Json::Num(e.wall_s)),
                            ("wall_pct", Json::Num(wall_pct)),
                            ("events", Json::Num(e.events as f64)),
                            ("events_per_s", eps),
                            // Deterministic row: `--check-strict` grades the
                            // manifest's recovery-event count against this.
                            ("recovery_events", Json::Num(e.recovery.events as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serializes campaign rows as a manifest (written as `manifest.json` next
/// to the per-experiment reports).
pub fn manifest_from_entries(entries: &[ManifestEntry], seed: u64, scenario: Option<&str>) -> Json {
    let degraded = entries
        .iter()
        .filter(|e| e.status == RunStatus::Degraded)
        .count();
    Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("scenario", scenario.map_or(Json::Null, Json::str)),
        ("experiments", Json::Num(entries.len() as f64)),
        ("degraded", Json::Num(degraded as f64)),
        (
            "results",
            Json::Arr(entries.iter().map(ManifestEntry::to_json).collect()),
        ),
    ])
}

/// Serializes campaign outcomes as a manifest.
pub fn manifest(outcomes: &[RunOutcome], seed: u64, scenario: Option<&str>) -> Json {
    let entries: Vec<ManifestEntry> = outcomes.iter().map(ManifestEntry::from_outcome).collect();
    manifest_from_entries(&entries, seed, scenario)
}

/// Parses a manifest document back into `(seed, scenario, entries)`.
pub fn parse_manifest(s: &str) -> Result<(u64, Option<String>, Vec<ManifestEntry>), String> {
    let v = Json::parse(s)?;
    let seed = v
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or("manifest missing `seed`")? as u64;
    let scenario = match v.get("scenario") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err("manifest has a bad `scenario`".to_string()),
    };
    let results = v
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("manifest missing `results`")?;
    let entries = results
        .iter()
        .map(ManifestEntry::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((seed, scenario, entries))
}

/// Writes `contents` to `path` atomically: write to a sibling temp file,
/// flush, rename over the target, then sync the parent directory so the
/// rename itself survives a crash. A kill at any point leaves either the
/// old file or the new one — never a truncated hybrid.
///
/// The temp name is the *full* file name plus a `.tmp` suffix
/// (`a.json` → `a.json.tmp`), never `with_extension` — swapping the
/// extension collides for artifacts sharing a stem (`a.json` / `a.txt`
/// both mapped to `a.tmp`), which corrupts concurrent `--jobs N` writes.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("write_atomic: no file name in {}", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // fsync the directory entry: rename durability is a property of the
    // parent directory, not the file (the crash-consistency contract of
    // `--resume` depends on the renamed manifest actually being there).
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::faults;

    fn ok_exp(seed: u64) -> Report {
        Report {
            id: "ok",
            title: "fine".into(),
            body: format!("seed={seed}"),
        }
    }

    fn panicky_exp(_seed: u64) -> Report {
        panic!("kaboom");
    }

    fn seed_sensitive_exp(seed: u64) -> Report {
        if seed == 123 {
            panic!("bad seed");
        }
        Report {
            id: "flaky",
            title: "recovered".into(),
            body: format!("seed={seed}"),
        }
    }

    fn runaway_exp(_seed: u64) -> Report {
        let mut q = fiveg_simcore::EventQueue::new();
        let mut i = 0u64;
        loop {
            q.schedule(fiveg_simcore::SimTime::from_millis(i), i);
            q.pop();
            i += 1;
        }
    }

    fn sleepy_exp(_seed: u64) -> Report {
        std::thread::sleep(Duration::from_secs(30));
        ok_exp(0)
    }

    #[test]
    fn success_passes_report_through() {
        let sup = Supervisor::default();
        let out = sup.run_one("ok", ok_exp, 7);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.report.body, "seed=7");
        assert!(out.note.is_none());
    }

    #[test]
    fn panic_degrades_after_retry() {
        let sup = Supervisor::default();
        let out = sup.run_one("boom", panicky_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        assert_eq!(out.attempts, 2, "one retry consumed");
        assert!(out.note.as_deref().unwrap().contains("kaboom"));
        assert!(out.report.title.contains("DEGRADED"));
    }

    #[test]
    fn retry_with_perturbed_seed_can_recover() {
        let sup = Supervisor::default();
        let out = sup.run_one("flaky", seed_sensitive_exp, 123);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(out.attempts, 2);
        assert!(out.note.as_deref().unwrap().contains("bad seed"));
        assert_ne!(sup.attempt_seed("flaky", 123, 1), 123);
    }

    #[test]
    fn budget_kills_runaway_loops() {
        let sup = Supervisor {
            event_budget: 10_000,
            ..Supervisor::default()
        };
        let out = sup.run_one("runaway", runaway_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        assert!(
            out.note.as_deref().unwrap().contains(budget::EXHAUSTED_MSG),
            "note: {:?}",
            out.note
        );
    }

    #[test]
    fn deadline_abandons_wedged_threads() {
        // A sleeper never charges the budget, so it cannot observe the
        // cancel — the escalation ladder runs to its end: kill, grace,
        // abandon (the leak of last resort, now at least counted).
        let leaked_before = leaked_threads();
        let sup = Supervisor {
            deadline: Duration::from_millis(50),
            grace: Duration::from_millis(50),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("sleepy", sleepy_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("deadline"), "note: {note}");
        assert!(note.contains("wedged"), "note: {note}");
        assert!(note.contains("abandoned"), "note: {note}");
        assert!(leaked_threads() > leaked_before, "the leak is counted");
    }

    #[test]
    fn cancelled_attempt_thread_terminates_cooperatively() {
        // Regression for the abandoned-thread leak: a deadline kill on an
        // experiment that charges the budget must unwind the attempt
        // thread — observed by a canary whose destructor only runs if the
        // thread actually exits (the supervisor joins it on the
        // cooperative path, so the flag is settled by the time run_one
        // returns).
        static CANARY_DROPPED: AtomicBool = AtomicBool::new(false);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                CANARY_DROPPED.store(true, Ordering::SeqCst);
            }
        }
        fn charging_forever_exp(_seed: u64) -> Report {
            let _canary = Canary;
            loop {
                fiveg_simcore::budget::charge(64);
            }
        }
        let leaked_before = leaked_threads();
        let sup = Supervisor {
            deadline: Duration::from_millis(100),
            // Huge but not the u64::MAX disarm sentinel: only the cancel
            // plane may kill this loop, never budget exhaustion.
            event_budget: 1 << 60,
            grace: Duration::from_secs(10),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("charger", charging_forever_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("deadline"), "note: {note}");
        assert!(note.contains("cancelled cooperatively"), "note: {note}");
        assert!(note.contains("events charged at kill"), "note: {note}");
        assert!(
            CANARY_DROPPED.load(Ordering::SeqCst),
            "the attempt thread unwound and exited"
        );
        assert_eq!(leaked_threads(), leaked_before, "no thread leaked");
    }

    #[test]
    fn stall_watchdog_kills_silent_experiments_early() {
        // Charges events, then goes silent for far longer than the stall
        // window while the deadline is still an hour away: the watchdog
        // must cancel it, and the resumed charge loop must observe the
        // kill and unwind.
        fn stall_then_charge_exp(_seed: u64) -> Report {
            fiveg_simcore::budget::charge(3 * fiveg_simcore::cancel::POLL_INTERVAL);
            std::thread::sleep(Duration::from_secs(1));
            loop {
                fiveg_simcore::budget::charge(64);
            }
        }
        let sup = Supervisor {
            deadline: Duration::from_secs(3600),
            event_budget: 1 << 60,
            stall: Duration::from_millis(100),
            grace: Duration::from_secs(10),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("staller", stall_then_charge_exp, 1);
        assert_eq!(out.status, RunStatus::Degraded);
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("stalled"), "note: {note}");
        assert!(note.contains("cancelled cooperatively"), "note: {note}");
    }

    #[test]
    fn zero_charge_experiments_are_exempt_from_the_stall_watchdog() {
        // Some experiments legitimately run long without ever touching the
        // budget (pure-compute reports); the watchdog must not kill them.
        fn quiet_compute_exp(_seed: u64) -> Report {
            std::thread::sleep(Duration::from_millis(300));
            ok_exp(0)
        }
        let sup = Supervisor {
            deadline: Duration::from_secs(3600),
            stall: Duration::from_millis(50),
            retries: 0,
            ..Supervisor::default()
        };
        let out = sup.run_one("quiet", quiet_compute_exp, 1);
        assert_eq!(out.status, RunStatus::Ok, "note: {:?}", out.note);
    }

    #[test]
    fn interrupt_before_start_skips_the_run() {
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(true)));
        let sup = Supervisor {
            interrupt: Some(flag),
            ..Supervisor::default()
        };
        let out = sup.run_one("never", ok_exp, 1);
        assert_eq!(out.status, RunStatus::Interrupted);
        assert_eq!(out.attempts, 0);
        assert!(out
            .note
            .as_deref()
            .unwrap()
            .contains("interrupted before start"));
        assert!(out.report.title.contains("INTERRUPTED"));
    }

    #[test]
    fn interrupt_mid_run_cancels_in_flight_attempts() {
        fn charging_exp_2(_seed: u64) -> Report {
            loop {
                fiveg_simcore::budget::charge(64);
            }
        }
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let sup = Supervisor {
            deadline: Duration::from_secs(3600),
            event_budget: 1 << 60,
            grace: Duration::from_secs(10),
            interrupt: Some(flag),
            ..Supervisor::default()
        };
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(true, Ordering::SeqCst);
        });
        let out = sup.run_one("interruptee", charging_exp_2, 1);
        setter.join().unwrap();
        assert_eq!(out.status, RunStatus::Interrupted, "note: {:?}", out.note);
        assert_eq!(out.attempts, 1, "no retry after an interrupt");
        let note = out.note.as_deref().unwrap();
        assert!(note.contains("interrupted"), "note: {note}");
        assert!(note.contains("cancelled cooperatively"), "note: {note}");
    }

    #[test]
    fn interrupted_campaign_returns_every_entry_unstarted() {
        // With the interrupt flag already up, the pool still claims every
        // unit, and each returns at once without running its body: the
        // campaign gets a complete, all-`Interrupted` outcome list.
        static BODY_RUNS: AtomicUsize = AtomicUsize::new(0);
        fn counted_exp(seed: u64) -> Report {
            BODY_RUNS.fetch_add(1, Ordering::SeqCst);
            ok_exp(seed)
        }
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(true)));
        let sup = Supervisor {
            interrupt: Some(flag),
            ..Supervisor::default()
        };
        let entries: [(&'static str, Experiment); 4] = [
            ("a", counted_exp),
            ("b", counted_exp),
            ("c", counted_exp),
            ("d", counted_exp),
        ];
        for jobs in [1, 3] {
            let done: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let (outs, busy) = sup.run_registry_jobs_timed(&entries, 5, jobs, |i, _| {
                done.lock().unwrap().push(i);
            });
            assert_eq!(busy.len(), jobs);
            assert_eq!(outs.len(), entries.len());
            for (o, (id, _)) in outs.iter().zip(&entries) {
                assert_eq!(o.id, *id);
                assert_eq!(o.status, RunStatus::Interrupted);
                assert_eq!(o.attempts, 0);
                assert_eq!(o.note.as_deref(), Some("interrupted before start"));
            }
            let mut done = done.into_inner().unwrap();
            done.sort();
            assert_eq!(done, vec![0, 1, 2, 3], "on_done fires once per entry");
        }
        assert_eq!(BODY_RUNS.load(Ordering::SeqCst), 0, "no body ever ran");
    }

    #[test]
    fn interrupted_status_round_trips_through_the_manifest() {
        assert_eq!(
            RunStatus::parse("interrupted"),
            Some(RunStatus::Interrupted)
        );
        assert_eq!(RunStatus::Interrupted.as_str(), "interrupted");
        let entry = ManifestEntry {
            id: "x".to_string(),
            status: RunStatus::Interrupted,
            attempts: 1,
            note: Some("interrupted".to_string()),
            recovery: RecoverySummary::empty(),
            wall_s: 0.0,
            events: 0,
            resumed: false,
        };
        let parsed = ManifestEntry::from_json(&entry.to_json()).expect("parses");
        assert_eq!(parsed.status, RunStatus::Interrupted);
    }

    #[test]
    fn one_failure_does_not_stop_the_campaign() {
        let sup = Supervisor::default();
        let entries: [(&'static str, Experiment); 3] =
            [("ok", ok_exp), ("boom", panicky_exp), ("ok2", ok_exp)];
        let outs = sup.run_registry_jobs_timed(&entries, 9, 1, |_, _| {}).0;
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].status, RunStatus::Ok);
        assert_eq!(outs[1].status, RunStatus::Degraded);
        assert_eq!(outs[2].status, RunStatus::Ok);
        // Every entry rendered a report.
        for o in &outs {
            assert!(!o.report.render().is_empty());
        }
    }

    #[test]
    fn manifest_counts_degraded() {
        let sup = Supervisor::default();
        let entries: [(&'static str, Experiment); 2] = [("ok", ok_exp), ("boom", panicky_exp)];
        let outs = sup.run_registry_jobs_timed(&entries, 5, 1, |_, _| {}).0;
        let m = manifest(&outs, 5, Some("chaos")).render();
        assert!(m.contains("\"seed\":5"));
        assert!(m.contains("\"scenario\":\"chaos\""));
        assert!(m.contains("\"degraded\":1"));
        assert!(m.contains("\"id\":\"boom\""));
    }

    #[test]
    fn manifest_round_trips_through_parse() {
        let sup = Supervisor::with_scenario(FaultScenario::chaos());
        fn recovering_exp(_seed: u64) -> Report {
            recovery::record(
                fiveg_simcore::recovery::RecoveryKind::TcpRto,
                3.0,
                1.0,
                4.0,
                || "test".into(),
            );
            Report {
                id: "rec",
                title: "t".into(),
                body: "b".into(),
            }
        }
        let entries: [(&'static str, Experiment); 2] =
            [("rec", recovering_exp), ("boom", panicky_exp)];
        let outs = sup.run_registry_jobs_timed(&entries, 5, 1, |_, _| {}).0;
        assert_eq!(outs[0].recovery.len(), 1, "collector captured the event");
        let text = manifest(&outs, 5, Some("chaos")).render();
        let (seed, scenario, parsed) = parse_manifest(&text).expect("parses");
        assert_eq!(seed, 5);
        assert_eq!(scenario.as_deref(), Some("chaos"));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].recovery.events, 1);
        assert_eq!(parsed[0].recovery.by_kind, vec![("tcp-rto".to_string(), 1)]);
        assert_eq!(parsed[1].status, RunStatus::Degraded);
        // Re-rendering parsed entries is byte-identical — resume-written
        // manifests hash the same as fresh ones.
        assert_eq!(
            manifest_from_entries(&parsed, seed, scenario.as_deref()).render(),
            text
        );
    }

    #[test]
    fn parallel_run_matches_serial_byte_for_byte() {
        fn exp_a(seed: u64) -> Report {
            Report {
                id: "a",
                title: "a".into(),
                body: format!("seed={seed}"),
            }
        }
        fn exp_b(seed: u64) -> Report {
            // Consume some budget so events flow through the outcome.
            fiveg_simcore::budget::charge(17);
            Report {
                id: "b",
                title: "b".into(),
                body: format!("seed={}", seed.wrapping_mul(3)),
            }
        }
        fn exp_slow(seed: u64) -> Report {
            // Finishes *after* later queue entries, exercising ordered
            // collection under out-of-order completion.
            std::thread::sleep(Duration::from_millis(60));
            Report {
                id: "slow",
                title: "slow".into(),
                body: format!("seed={seed}"),
            }
        }
        let entries: [(&'static str, Experiment); 4] = [
            ("slow", exp_slow),
            ("a", exp_a),
            ("boom", panicky_exp),
            ("b", exp_b),
        ];
        for scenario in [None, Some(FaultScenario::chaos())] {
            let sup = Supervisor {
                scenario,
                ..Supervisor::default()
            };
            let run = |jobs| {
                let outs = sup
                    .run_registry_jobs_timed(&entries, 2021, jobs, |_, _| {})
                    .0;
                manifest(&outs, 2021, Some("x")).render()
            };
            let (serial, parallel) = (run(1), run(4));
            assert_eq!(serial, parallel, "jobs=4 must not perturb the manifest");
        }
    }

    #[test]
    fn on_done_fires_once_per_entry_with_matching_ids() {
        let entries: [(&'static str, Experiment); 3] =
            [("ok", ok_exp), ("boom", panicky_exp), ("ok2", ok_exp)];
        let sup = Supervisor::default();
        let seen: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let (outs, _) = sup.run_registry_jobs_timed(&entries, 5, 3, |i, o| {
            seen.lock().unwrap().push((i, o.id.to_string()));
        });
        assert_eq!(outs.len(), 3);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (0, "ok".to_string()),
                (1, "boom".to_string()),
                (2, "ok2".to_string())
            ]
        );
        // Collection order is entry order even if completion was not.
        assert_eq!(outs[0].id, "ok");
        assert_eq!(outs[1].id, "boom");
        assert_eq!(outs[2].id, "ok2");
    }

    #[test]
    fn outcomes_carry_wall_clock_and_event_counts() {
        fn charging_exp(_seed: u64) -> Report {
            fiveg_simcore::budget::charge(123);
            Report {
                id: "charge",
                title: "t".into(),
                body: "b".into(),
            }
        }
        let out = Supervisor::default().run_one("charge", charging_exp, 1);
        assert_eq!(out.events, 123);
        assert!(out.wall_s > 0.0);
        let entry = ManifestEntry::from_outcome(&out);
        assert_eq!(entry.events, 123);
        assert!(!entry.resumed);
        // The perf fields never leak into the persisted manifest row.
        let rendered = entry.to_json().render();
        assert!(!rendered.contains("wall_s"), "manifest row: {rendered}");
        assert!(
            !rendered.contains("events_per_s"),
            "manifest row: {rendered}"
        );
    }

    #[test]
    fn bench_report_totals_exclude_resumed_rows() {
        let mk = |id: &str, wall_s: f64, events: u64, resumed: bool| ManifestEntry {
            id: id.to_string(),
            status: RunStatus::Ok,
            attempts: 1,
            note: None,
            recovery: RecoverySummary::empty(),
            wall_s,
            events,
            resumed,
        };
        let rows = vec![
            mk("a", 2.0, 100, false),
            mk("b", 0.0, 0, true),
            mk("c", 3.0, 200, false),
        ];
        let j = bench_report(&rows, 7, Some("chaos"), 4, 2.5);
        assert_eq!(j.get("serial_wall_s").and_then(Json::as_f64), Some(5.0));
        assert_eq!(j.get("events").and_then(Json::as_f64), Some(300.0));
        assert_eq!(j.get("speedup_est").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("resumed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("jobs").and_then(Json::as_f64), Some(4.0));
        let results = j.get("results").and_then(Json::as_arr).expect("results");
        assert_eq!(results.len(), 3);
        assert_eq!(results[1].get("resumed"), Some(&Json::Bool(true)));
        // events/sec for row c: 200 / 3.0.
        let eps = results[2]
            .get("events_per_s")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((eps - 200.0 / 3.0).abs() < 1e-12);
        // A zero-event row reports null throughput, not a misleading 0.
        assert_eq!(results[1].get("events_per_s"), Some(&Json::Null));
        // wall_pct is the row's share of the serial wall (resumed row: 0).
        let pct = results[2].get("wall_pct").and_then(Json::as_f64).unwrap();
        assert!((pct - 60.0).abs() < 1e-12, "pct {pct}");
        assert_eq!(results[1].get("wall_pct").and_then(Json::as_f64), Some(0.0));
        // The recovery-event count rides along for --check-strict.
        assert_eq!(
            results[0].get("recovery_events").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn bench_report_wall_pct_column_sums_to_exactly_one_hundred() {
        let mk = |id: &str, wall_s: f64| ManifestEntry {
            id: id.to_string(),
            status: RunStatus::Ok,
            attempts: 1,
            note: None,
            recovery: RecoverySummary::empty(),
            wall_s,
            events: 1,
            resumed: false,
        };
        // Three equal thirds: naive per-row rounding gives 33.3 × 3 = 99.9.
        let rows = vec![mk("a", 1.0), mk("b", 1.0), mk("c", 1.0)];
        let j = bench_report(&rows, 7, None, 1, 3.0);
        let results = j.get("results").and_then(Json::as_arr).expect("results");
        let pcts: Vec<f64> = results
            .iter()
            .map(|r| r.get("wall_pct").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(pcts, vec![33.4, 33.3, 33.3]);
        let sum: f64 = pcts.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn no_scenario_collects_no_recovery_events() {
        let sup = Supervisor::default();
        let out = sup.run_one("ok", ok_exp, 7);
        assert!(out.recovery.is_empty());
        let entry = ManifestEntry::from_outcome(&out);
        assert_eq!(entry.recovery, RecoverySummary::empty());
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("fiveg-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("manifest.json");
        write_atomic(&path, "first").expect("write");
        write_atomic(&path, "second").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second");
        assert!(!path.with_extension("tmp").exists(), "old tmp name unused");
        assert!(
            !dir.join("manifest.json.tmp").exists(),
            "suffixed tmp cleaned up"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_same_stem_concurrent_writes_do_not_collide() {
        // Regression: `path.with_extension("tmp")` mapped `exp.json` and
        // `exp.txt` to the SAME temp file, so two workers writing the two
        // artifacts concurrently could rename each other's half-written
        // bytes into place (or fail the rename outright). The suffixed
        // temp name keeps the pair disjoint; hammer it to be sure.
        let dir = std::env::temp_dir().join(format!(
            "fiveg-atomic-stem-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let json = dir.join("exp.json");
        let txt = dir.join("exp.txt");
        std::thread::scope(|scope| {
            let j = scope.spawn(|| {
                for _ in 0..200 {
                    write_atomic(&json, "json-contents").expect("json write");
                }
            });
            let t = scope.spawn(|| {
                for _ in 0..200 {
                    write_atomic(&txt, "txt-contents").expect("txt write");
                }
            });
            j.join().expect("json thread");
            t.join().expect("txt thread");
        });
        assert_eq!(
            std::fs::read_to_string(&json).expect("json"),
            "json-contents"
        );
        assert_eq!(std::fs::read_to_string(&txt).expect("txt"), "txt-contents");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_rejects_pathless_targets() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }

    #[test]
    fn guard_violations_flow_into_the_outcome_not_the_manifest() {
        fn violating_exp(_seed: u64) -> Report {
            guard::check("test", "deliberately-broken", false, 2.5, || {
                "canary".into()
            });
            Report {
                id: "viol",
                title: "t".into(),
                body: "b".into(),
            }
        }
        let out = Supervisor::default().run_one("viol", violating_exp, 1);
        assert_eq!(out.status, RunStatus::Ok, "Record policy never degrades");
        if guard::compiled() {
            assert_eq!(out.guards.violations.len(), 1);
            assert_eq!(out.guards.violations[0].invariant, "deliberately-broken");
        } else {
            assert!(out.guards.is_clean());
        }
        // The manifest row never carries guard state — bit-identity with
        // the plane off depends on it.
        let rendered = ManifestEntry::from_outcome(&out).to_json().render();
        assert!(!rendered.contains("guard"), "manifest row: {rendered}");

        let off = Supervisor {
            guards: None,
            ..Supervisor::default()
        }
        .run_one("viol", violating_exp, 1);
        assert!(off.guards.is_clean());
        assert_eq!(off.guards.checks, 0, "no collector, no checks counted");
    }

    #[test]
    fn fail_fast_policy_degrades_on_violation() {
        fn violating_exp(_seed: u64) -> Report {
            guard::check("test", "broken", false, 0.0, || "x".into());
            Report {
                id: "ff",
                title: "t".into(),
                body: "b".into(),
            }
        }
        let sup = Supervisor {
            guards: Some(GuardPolicy::FailFast),
            ..Supervisor::default()
        };
        let out = sup.run_one("ff", violating_exp, 1);
        if guard::compiled() {
            assert_eq!(out.status, RunStatus::Degraded);
            assert!(
                out.note.as_deref().unwrap().contains(guard::VIOLATION_MSG),
                "note: {:?}",
                out.note
            );
        } else {
            assert_eq!(out.status, RunStatus::Ok);
        }
    }

    #[test]
    fn retry_after_panic_starts_with_clean_planes() {
        use std::sync::atomic::AtomicBool;
        static POISONED_ONCE: AtomicBool = AtomicBool::new(false);
        fn poisoning_exp(_seed: u64) -> Report {
            if !POISONED_ONCE.swap(true, Ordering::SeqCst) {
                // First attempt: dirty every per-attempt plane, then die
                // mid-experiment with the collectors still half-full.
                recovery::record(
                    fiveg_simcore::recovery::RecoveryKind::TcpRto,
                    1.0,
                    0.5,
                    2.0,
                    || "poison".into(),
                );
                telemetry::count("test/poison", 1);
                guard::check("test", "poison", false, 1.0, || "poison".into());
                fiveg_simcore::budget::charge(1_000);
                panic!("first attempt dies with dirty planes");
            }
            // The retry must see freshly-installed, empty planes: nothing
            // recorded by the panicked attempt may leak across.
            let rec = recovery::drain();
            assert!(rec.is_empty(), "retry inherited recovery events: {rec:?}");
            let telem = telemetry::drain();
            assert!(
                telem.counters.iter().all(|(n, _)| *n != "test/poison"),
                "retry inherited telemetry: {:?}",
                telem.counters
            );
            let guards = guard::drain();
            assert!(guards.is_clean(), "retry inherited guard state: {guards:?}");
            assert!(
                fiveg_simcore::budget::consumed() == Some(0),
                "retry inherited budget consumption"
            );
            Report {
                id: "poison",
                title: "clean".into(),
                body: "retry saw empty planes".into(),
            }
        }
        let sup = Supervisor {
            scenario: Some(FaultScenario::chaos()),
            telemetry: true,
            ..Supervisor::default()
        };
        let out = sup.run_one("poison", poisoning_exp, 7);
        assert_eq!(out.status, RunStatus::Ok, "note: {:?}", out.note);
        assert_eq!(out.attempts, 2);
    }

    #[test]
    fn pool_map_collects_in_index_order() {
        let (results, busy) = pool_map(16, 4, |i| {
            if i % 3 == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            i * i
        });
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(busy.len(), 4);
    }

    #[test]
    fn scenario_installs_plane_only_inside_the_experiment() {
        fn plane_probe(_seed: u64) -> Report {
            Report {
                id: "probe",
                title: "plane".into(),
                body: format!("enabled={}", faults::enabled()),
            }
        }
        let sup = Supervisor::with_scenario(FaultScenario::chaos());
        let out = sup.run_one("probe", plane_probe, 1);
        assert_eq!(out.report.body, "enabled=true");
        assert!(!faults::enabled(), "plane never leaks to the caller thread");

        let plain = Supervisor::default().run_one("probe", plane_probe, 1);
        assert_eq!(plain.report.body, "enabled=false");
    }
}
