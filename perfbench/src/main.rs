//! The benchmark's worker binary. `perfbench/run.py` builds it and drives
//! it; each invocation prints one JSON line on stdout.
//!
//! ```text
//! perfbench calib                                   host descriptor + calibration kernel
//! perfbench setup --workload W --seed N --t0-ns T   set-up only, then exit
//! perfbench pass  --workload W --seed N --t0-ns T   one untraced pass
//! perfbench trace --workload W --seed N [--spans F] untraced pass, traced pass, fidelity check
//! ```
//!
//! `--t0-ns` is the parent's wall clock (ns since the Unix epoch) just
//! before it spawned this process, so `setup_s` covers process start-up.

mod replay;
mod trace;
mod traced;
mod workloads;

use fiveg_bench::json::Json;
use fiveg_bench::runner::Supervisor;
use std::hint::black_box;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Per-layer metrics `run.py` adds from `calib` (the rest come from
/// [`traced::layer_metrics`]).
pub const HOST_METRICS: [&str; 2] = ["host.calib_ms", "host.nproc"];

/// A metric name the benchmark contract accepts.
#[cfg(test)]
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => println!("{}", line.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

fn run(args: &[String]) -> Result<Json, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    if cmd == "calib" {
        return Ok(calib());
    }
    if !matches!(cmd, "setup" | "pass" | "trace") {
        return Err(format!(
            "unknown command {cmd:?} (calib, setup, pass, trace)"
        ));
    }
    let name: String = parsed(args, "--workload")?;
    let seed: u64 = parsed(args, "--seed")?;
    let workload = workloads::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let supervisor = Supervisor::default();
    if cmd == "setup" || cmd == "pass" {
        let t0_ns: u128 = parsed(args, "--t0-ns")?;
        let setup_s = since_unix_ns(t0_ns);
        if cmd == "setup" {
            return Ok(Json::obj(vec![("setup_s", Json::Num(setup_s))]));
        }
        let pass = workloads::run_pass(&workload, &supervisor, seed);
        return Ok(Json::obj(vec![
            ("setup_s", Json::Num(setup_s)),
            ("wall_s", Json::Num(pass.wall_s)),
            ("cpu_s", Json::Num(pass.cpu_s)),
            (
                "laps",
                Json::Arr(
                    pass.laps
                        .iter()
                        .map(|l| Json::Arr(vec![Json::Num(l.wall_s), Json::Num(l.cpu_s)]))
                        .collect(),
                ),
            ),
            ("outcomes", outcomes_json(&pass, seed)),
        ]));
    }
    let pass = workloads::run_pass(&workload, &supervisor, seed);
    let traced_pass = traced::run(&workload, seed);
    let fidelity = traced::fidelity(&workload, seed, &traced_pass, &pass);
    if let Some(path) = flag(args, "--spans") {
        let ids: Vec<&str> = workload.entries.iter().map(|(id, _)| *id).collect();
        trace::write_jsonl(Path::new(path), &ids, &traced_pass.spans)
            .map_err(|e| format!("writing spans to {path}: {e}"))?;
    }
    let metrics = traced::layer_metrics(&workload, &pass, &traced_pass);
    Ok(Json::obj(vec![
        ("outcomes", outcomes_json(&pass, seed)),
        (
            "fidelity",
            Json::Arr(fidelity.into_iter().map(Json::Str).collect()),
        ),
        (
            "replay",
            Json::Obj(
                workload
                    .entries
                    .iter()
                    .map(|(id, _)| (id.to_string(), Json::str(traced::replay_kind(id).as_str())))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(n, v, u)| {
                        (
                            n,
                            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(u))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Seconds from `t0_ns` (Unix-epoch wall clock) to now.
fn since_unix_ns(t0_ns: u128) -> f64 {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos();
    now.saturating_sub(t0_ns) as f64 / 1e9
}

fn outcomes_json(pass: &workloads::Pass, seed: u64) -> Json {
    let root = std::env::current_dir().unwrap_or_else(|_| ".".into());
    Json::Arr(
        pass.outcomes
            .iter()
            .map(|o| {
                let c = workloads::check(o, seed, &root);
                Json::obj(vec![
                    ("id", Json::str(c.id)),
                    ("digest", Json::str(format!("{:016x}", c.digest))),
                    ("problem", Json::Str(c.problem)),
                ])
            })
            .collect(),
    )
}

/// The fixed single-thread calibration kernel: a dependent xorshift and
/// floating-point chain, so neither the compiler nor the CPU can overlap
/// iterations. Returns the median of seven timings in ms.
fn calib_ms() -> f64 {
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            let mut acc = 1.0f64;
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc * 0.999_999 + (x >> 40) as f64 * 1e-9;
            }
            black_box((x, acc));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn calib() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("calib_ms", Json::Num(calib_ms())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(spec: &Json, key: &str) -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_and_caps_hold() {
        let spec = benchmark_json();
        let e2e = names(&spec, "end_to_end");
        let layer = names(&spec, "per_layer");
        assert!(
            (1..=16).contains(&e2e.len()),
            "{} end-to-end metrics",
            e2e.len()
        );
        assert!(
            (1..=128).contains(&layer.len()),
            "{} per-layer metrics",
            layer.len()
        );
        for n in e2e.iter().chain(&layer) {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let setup = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    }

    #[test]
    fn per_layer_list_matches_what_the_trace_reports() {
        let spec = benchmark_json();
        let w = workloads::find("abr-learn").expect("workload");
        let pass = workloads::Pass {
            wall_s: 1.0,
            cpu_s: 1.0,
            laps: Vec::new(),
            busy_s: vec![1.0],
            outcomes: Vec::new(),
        };
        let traced = traced::Traced {
            wall_s: 1.0,
            spans: Vec::new(),
            shard_values: Vec::new(),
        };
        let mut reported: Vec<String> = traced::layer_metrics(&w, &pass, &traced)
            .into_iter()
            .map(|m| m.0)
            .chain(HOST_METRICS.iter().map(|s| s.to_string()))
            .collect();
        let mut declared = names(&spec, "per_layer");
        reported.sort();
        declared.sort();
        assert_eq!(reported, declared);
    }

    #[test]
    fn every_workload_says_why_and_which_layers_it_moves() {
        let spec = benchmark_json();
        let listed: Vec<&Json> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .collect();
        let listed_names: Vec<&str> = listed
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(listed_names, workloads::NAMES);
        let layers: Vec<String> = names(&spec, "per_layer");
        for w in listed {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(
                why.len() > 20 && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
            let moved: Vec<&String> = layers
                .iter()
                .filter(|m| {
                    let stem = m.rsplit_once('.').map_or(m.as_str(), |(s, _)| s);
                    why.contains(stem)
                })
                .collect();
            assert!(
                !moved.is_empty(),
                "{why:?} names no per-layer metric it should move"
            );
        }
    }

    #[test]
    fn names_outside_the_contract_are_rejected() {
        assert!(valid_name("mlkit.tree_fit.ns_per_row"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("with space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
