//! The traced run: every workload unit replayed under a [`Tracer`], the
//! fidelity check of the sharded replays, and the per-layer metrics folded
//! from the spans.

use crate::replay;
use crate::trace::{Span, Tracer};
use crate::workloads::{Pass, Workload};
use fiveg_bench::experiments::Experiment;
use fiveg_bench::runner::pool_map;
use fiveg_bench::shard;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Span ids of shard `k` start at `(k + 1) << SHARD_ID_SHIFT`; whole
/// experiments start at 0.
const SHARD_ID_SHIFT: u32 = 20;

/// How the traced replay runs an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Shard by shard, layer call by layer call, fidelity-checked.
    Sharded,
    /// Layer call by layer call (formatting glue skipped), unchecked.
    Calls,
    /// Through its registry function, inside one `exp` span.
    Unattributed,
}

impl Replay {
    /// Short label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Replay::Sharded => "sharded",
            Replay::Calls => "calls",
            Replay::Unattributed => "unattributed",
        }
    }
}

/// How `id` is traced.
pub fn replay_kind(id: &str) -> Replay {
    if shard::find(id).is_some() {
        Replay::Sharded
    } else if replay::replicated().contains(&id) {
        Replay::Calls
    } else {
        Replay::Unattributed
    }
}

/// One schedulable unit: a whole experiment or one shard of one.
struct Unit {
    exp: usize,
    id: &'static str,
    run: Experiment,
    shard: Option<usize>,
}

fn units(w: &Workload) -> Vec<Unit> {
    let mut out = Vec::new();
    for (exp, &(id, run)) in w.entries.iter().enumerate() {
        match shard::find(id) {
            Some(spec) => out.extend((0..spec.shards).map(|k| Unit {
                exp,
                id,
                run,
                shard: Some(k),
            })),
            None => out.push(Unit {
                exp,
                id,
                run,
                shard: None,
            }),
        }
    }
    out
}

/// The traced pass: spans of every unit plus the raw values of each shard.
pub struct Traced {
    /// Wall seconds of the whole traced pass.
    pub wall_s: f64,
    /// Every span, unit by unit.
    pub spans: Vec<Span>,
    /// `(experiment index, id, shard, values)` for every shard unit.
    pub shard_values: Vec<(usize, &'static str, usize, Vec<f64>)>,
}

/// Runs every unit of the workload under tracing, on as many workers as
/// the untraced pass used.
pub fn run(w: &Workload, seed: u64) -> Traced {
    let units = units(w);
    let epoch = Instant::now();
    let (results, _) = pool_map(units.len(), w.jobs, |i| {
        let u = &units[i];
        let base = u.shard.map_or(0, |k| (k as u32 + 1) << SHARD_ID_SHIFT);
        let mut t = Tracer::new(epoch, u.exp as u32, base);
        let values = match u.shard {
            Some(k) => {
                let frame = t.open("shard");
                let v = replay::shard(&mut t, u.id, seed, k);
                t.close(frame, 0.0, k as u64);
                Some(v)
            }
            None => {
                let frame = t.open("exp");
                match replay_kind(u.id) {
                    Replay::Calls => replay::whole(&mut t, u.id, seed),
                    _ => {
                        black_box((u.run)(seed));
                    }
                }
                t.close(frame, 0.0, 0);
                None
            }
        };
        (t.into_spans(), values)
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut spans = Vec::new();
    let mut shard_values = Vec::new();
    for (u, (s, v)) in units.iter().zip(results) {
        spans.extend(s);
        if let (Some(k), Some(v)) = (u.shard, v) {
            shard_values.push((u.exp, u.id, k, v));
        }
    }
    Traced {
        wall_s,
        spans,
        shard_values,
    }
}

/// Fidelity check: every replayed shard must return exactly what the
/// shard's own `run(seed, k)` returns, bit for bit, and the order-fixed
/// merge of the replayed shards must render the untraced pass's report.
/// Returns one problem line per failing experiment.
pub fn fidelity(w: &Workload, seed: u64, traced: &Traced, pass: &Pass) -> Vec<String> {
    let checks = &traced.shard_values;
    let (direct, _) = pool_map(checks.len(), w.jobs, |i| {
        let (_, id, k, _) = checks[i];
        (shard::find(id).expect("sharded").run)(seed, k)
    });
    let mut problems = BTreeMap::new();
    for ((_, id, k, replayed), direct) in checks.iter().zip(&direct) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(replayed) != bits(direct) {
            problems.insert(
                *id,
                format!("{id}: replayed shard {k} differs from run(seed, {k})"),
            );
        }
    }
    for (exp, outcome) in pass.outcomes.iter().enumerate() {
        let Some(spec) = shard::find(outcome.id) else {
            continue;
        };
        let parts: Vec<Vec<f64>> = checks
            .iter()
            .filter(|c| c.0 == exp)
            .map(|c| c.3.clone())
            .collect();
        if (spec.merge)(seed, &parts).render() != outcome.report.render() {
            problems.entry(outcome.id).or_insert_with(|| {
                format!(
                    "{}: merged replay differs from the runner's report",
                    outcome.id
                )
            });
        }
    }
    problems.into_values().collect()
}

/// Per-call aggregate of one span name.
#[derive(Default)]
struct Agg {
    busy_ns: u64,
    work: f64,
    durs_ns: Vec<u64>,
    keys: BTreeSet<u64>,
}

impl Agg {
    fn calls(&self) -> f64 {
        self.durs_ns.len() as f64
    }

    fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// Busy ns per work unit; 0 when the workload made no such call.
    fn ns_per_work(&self) -> f64 {
        if self.work > 0.0 {
            self.busy_ns as f64 / self.work
        } else {
            0.0
        }
    }

    /// Distinct input fingerprints over calls; 0 without calls.
    fn unique_ratio(&self) -> f64 {
        if self.durs_ns.is_empty() {
            0.0
        } else {
            self.keys.len() as f64 / self.calls()
        }
    }

    /// Nearest-rank percentile of the call durations, in µs.
    fn pct_us(&self, p: f64) -> f64 {
        let mut d = self.durs_ns.clone();
        if d.is_empty() {
            return 0.0;
        }
        d.sort_unstable();
        let rank = ((p / 100.0 * d.len() as f64).ceil() as usize).clamp(1, d.len());
        d[rank - 1] as f64 / 1e3
    }
}

/// The tail percentile reported for `n` calls: the highest whole
/// percentile with at least ten calls beyond it (p50 when there are too
/// few calls for any tail).
pub fn tail_pct(n: usize) -> f64 {
    if n < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / n as f64)).floor().clamp(50.0, 99.0)
}

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Folds the traced run (and the untraced `pass` run just before it) into
/// the per-layer metrics, in a fixed order. Layers a workload never calls
/// report zero calls and zero rates.
pub fn layer_metrics(w: &Workload, pass: &Pass, traced: &Traced) -> Vec<Metric> {
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for s in &traced.spans {
        let a = by_name.entry(s.name).or_default();
        a.busy_ns += s.dur_ns();
        a.work += s.work;
        a.durs_ns.push(s.dur_ns());
        if s.key != 0 {
            a.keys.insert(s.key);
        }
    }
    let empty = Agg::default();
    let get = |name: &str| by_name.get(name).unwrap_or(&empty);
    let mut m: Vec<Metric> = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    for (layer, unit_name) in [("mlkit.tree_fit", "rows"), ("mlkit.tree_predict", "rows")] {
        let a = get(layer);
        push(&format!("{layer}.calls"), a.calls(), "count");
        push(&format!("{layer}.busy_s"), a.busy_s(), "s");
        push(&format!("{layer}.{unit_name}"), a.work, "count");
        push(&format!("{layer}.ns_per_row"), a.ns_per_work(), "ns");
    }
    let walk = get("traces.walk");
    push("traces.walk.calls", walk.calls(), "count");
    push("traces.walk.busy_s", walk.busy_s(), "s");
    push("traces.walk.samples", walk.work, "count");
    push("traces.walk.ns_per_sample", walk.ns_per_work(), "ns");
    let to_ds = get("traces.to_dataset");
    push("traces.to_dataset.calls", to_ds.calls(), "count");
    push("traces.to_dataset.busy_s", to_ds.busy_s(), "s");
    let hw = get("power.hw_record");
    push("power.hw_record.calls", hw.calls(), "count");
    push("power.hw_record.busy_s", hw.busy_s(), "s");
    push("power.hw_record.samples", hw.work, "count");
    push("power.hw_record.ns_per_sample", hw.ns_per_work(), "ns");
    let sw = get("power.sw_record");
    push("power.sw_record.calls", sw.calls(), "count");
    push("power.sw_record.samples", sw.work, "count");
    push("power.sw_record.ns_per_sample", sw.ns_per_work(), "ns");

    for layer in ["video.pensieve_train", "traces.lumos_corpus"] {
        let a = get(layer);
        push(&format!("{layer}.calls"), a.calls(), "count");
        push(&format!("{layer}.busy_s"), a.busy_s(), "s");
        push(&format!("{layer}.distinct"), a.keys.len() as f64, "count");
        push(&format!("{layer}.unique_ratio"), a.unique_ratio(), "frac");
    }
    for layer in ["video.stream_mpc", "video.stream_other"] {
        let a = get(layer);
        let tail = tail_pct(a.durs_ns.len());
        push(&format!("{layer}.calls"), a.calls(), "count");
        push(&format!("{layer}.busy_s"), a.busy_s(), "s");
        push(&format!("{layer}.p50_us"), a.pct_us(50.0), "us");
        push(&format!("{layer}.ptail_us"), a.pct_us(tail), "us");
        push(&format!("{layer}.ptail_pct"), tail, "pct");
        push(&format!("{layer}.chunks"), a.work, "count");
        push(&format!("{layer}.ns_per_chunk"), a.ns_per_work(), "ns");
    }
    let gbdt = get("video.gbdt_predictor_train");
    push("video.gbdt_predictor_train.calls", gbdt.calls(), "count");
    push("video.gbdt_predictor_train.busy_s", gbdt.busy_s(), "s");

    let st = get("probes.speedtest");
    let tail = tail_pct(st.durs_ns.len());
    push("probes.speedtest.calls", st.calls(), "count");
    push("probes.speedtest.busy_s", st.busy_s(), "s");
    push("probes.speedtest.p50_us", st.pct_us(50.0), "us");
    push("probes.speedtest.ptail_us", st.pct_us(tail), "us");
    push("probes.speedtest.ptail_pct", tail, "pct");
    for layer in ["transport.cubic", "transport.rate", "transport.bond"] {
        let a = get(layer);
        push(&format!("{layer}.calls"), a.calls(), "count");
        push(&format!("{layer}.busy_s"), a.busy_s(), "s");
        push(&format!("{layer}.flow_s"), a.work, "s");
        push(&format!("{layer}.ns_per_flow_s"), a.ns_per_work(), "ns");
    }
    for layer in ["radio.simulate_drive", "probes.rrc"] {
        let a = get(layer);
        push(&format!("{layer}.calls"), a.calls(), "count");
        push(&format!("{layer}.busy_s"), a.busy_s(), "s");
    }
    let web = get("web.load");
    push("web.load.calls", web.calls(), "count");
    push("web.load.busy_s", web.busy_s(), "s");
    push("web.load.p50_us", web.pct_us(50.0), "us");

    let busy: f64 = pass.busy_s.iter().sum();
    let serial_s: f64 = pass.outcomes.iter().map(|o| o.wall_s).sum();
    let frames: Vec<&Span> = traced.spans.iter().filter(|s| s.parent.is_none()).collect();
    let longest_unit_s = frames.iter().map(|s| s.dur_ns()).max().unwrap_or(0) as f64 / 1e9;
    push("bench.runner.workers", pass.busy_s.len() as f64, "count");
    push("bench.runner.units", frames.len() as f64, "count");
    push(
        "bench.runner.worker_busy_frac",
        busy / (pass.busy_s.len() as f64 * pass.wall_s),
        "frac",
    );
    push("bench.runner.longest_unit_s", longest_unit_s, "s");
    push("bench.runner.serial_s", serial_s, "s");
    push("bench.runner.speedup", serial_s / pass.wall_s, "x");

    let frame_ns: u64 = frames.iter().map(|s| s.dur_ns()).sum();
    let layer_ns: u64 = traced
        .spans
        .iter()
        .filter(|s| s.is_layer())
        .map(|s| s.dur_ns())
        .sum();
    let count = |kind: Replay| {
        w.entries
            .iter()
            .filter(|(id, _)| replay_kind(id) == kind)
            .count() as f64
    };
    push("trace.spans", traced.spans.len() as f64, "count");
    push("trace.wall_s", traced.wall_s, "s");
    push("trace.busy_s", frame_ns as f64 / 1e9, "s");
    push("trace.untraced_wall_s", pass.wall_s, "s");
    push(
        "trace.coverage",
        layer_ns as f64 / frame_ns.max(1) as f64,
        "frac",
    );
    push(
        "trace.overhead_frac",
        traced.wall_s / pass.wall_s - 1.0,
        "frac",
    );
    push("trace.experiments", w.entries.len() as f64, "count");
    push("trace.sharded", count(Replay::Sharded), "count");
    push("trace.replicated", count(Replay::Calls), "count");
    push("trace.unattributed", count(Replay::Unattributed), "count");
    push(
        "trace.fidelity_shards",
        traced.shard_values.len() as f64,
        "count",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn every_registry_experiment_has_a_replay_kind_and_a_replay() {
        for (id, _) in fiveg_bench::experiments::registry() {
            let listed = [
                shard::find(id).is_some(),
                replay::replicated().contains(&id),
                replay::unattributed().contains(&id),
            ];
            assert_eq!(
                listed.iter().filter(|&&b| b).count(),
                1,
                "{id} must be exactly one of sharded, replicated, unattributed"
            );
        }
    }

    #[test]
    fn tail_percentile_leaves_ten_calls_beyond_it() {
        assert_eq!(tail_pct(5), 50.0);
        assert_eq!(tail_pct(20), 50.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(168), 94.0);
        assert_eq!(tail_pct(100_000), 99.0);
        for n in 20..2000 {
            let p = tail_pct(n);
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn sharded_replays_match_the_shards_bit_for_bit() {
        // The cheap shards; the trace command checks every shard of the
        // workload it runs.
        let mut t = Tracer::new(Instant::now(), 0, 0);
        for (id, k) in [
            ("bonded-uplink", 0),
            ("bonded-uplink", 3),
            ("fig16", 1),
            ("fig18b", 0),
        ] {
            let spec = shard::find(id).expect("sharded");
            let replayed = replay::shard(&mut t, id, 7, k);
            let direct = (spec.run)(7, k);
            assert_eq!(
                replayed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                direct.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{id} shard {k}"
            );
        }
    }

    #[test]
    fn replicated_experiments_replay_without_panicking() {
        for id in ["fig1", "fig9", "fig10", "table7", "ablation-cc"] {
            let mut t = Tracer::new(Instant::now(), 0, 0);
            replay::whole(&mut t, id, 7);
            assert!(
                t.into_spans().iter().any(Span::is_layer),
                "{id} recorded no layer span"
            );
        }
    }

    #[test]
    fn metric_names_follow_the_contract() {
        let w = workloads::find("net-probe").expect("workload");
        let pass = Pass {
            wall_s: 1.0,
            cpu_s: 1.0,
            laps: Vec::new(),
            busy_s: vec![1.0],
            outcomes: Vec::new(),
        };
        let traced = Traced {
            wall_s: 1.0,
            spans: Vec::new(),
            shard_values: Vec::new(),
        };
        let names: Vec<String> = layer_metrics(&w, &pass, &traced)
            .into_iter()
            .map(|m| m.0)
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names are unique");
        for n in &names {
            assert!(crate::valid_name(n), "{n}");
        }
    }
}
