#!/usr/bin/env python3
"""Campaign benchmark: builds the `perfbench` worker and measures one workload.

Run from the repository root:

    python3 perfbench/run.py --workload power-walk --seed 2021 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

With `--trace 0` the workload runs untraced through the supervised runner
(`fiveg_bench::runner::Supervisor`, default settings), one fresh worker
process per pass, for about `--seconds` (at least one pass; see `fits`). It
reports the end-to-end metrics of BENCHMARK.json as medians over the
run's passes (times per experiment, see `pass_times`).
With `--trace 1` one worker runs an untraced pass, a traced replay of the
same units and the fidelity check, and reports the per-layer metrics; the
spans go to `<target dir>/perfbench-spans/`.

Every run prints a host line (`nproc`, CPU model, calibration kernel) and a
metric table, and as its last line one JSON object:
`{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}`.

The output check: each experiment must succeed on its first attempt; at the
campaign seed 2021 each report must equal `results/<id>.txt` byte for byte;
at any seed every pass must render the same bytes as the run's first pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CAMPAIGN_SEED = 2021
# Set-up-only worker spawns before each pass and after the last one (on top
# of the pass's own set-up): set-up takes about a millisecond, so its median
# needs many samples, spread over the run so that one burst of host
# contention cannot shift them all.
SETUP_PROBES = 10
# Share of `--seconds` a run may overrun to finish its last pass.
OVERRUN = 0.25
# A worker that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Builds the worker from source; returns the target dir and the executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    return target, os.path.join(target, "release", "perfbench")


def spawn(exe, args):
    """Runs one worker; returns its JSON line and its resource usage."""
    t0_ns = time.time_ns()
    proc = subprocess.Popen([exe, *args, "--t0-ns", str(t0_ns)],
                            cwd=ROOT, stdout=subprocess.PIPE)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), usage


def check_outcomes(outcomes, first, problems):
    """Counts failed outcomes; with `first`, also against its digests."""
    failed = 0
    for o in outcomes:
        why = o["problem"]
        if not why and first and o["digest"] != first[o["id"]]:
            why = "report bytes differ from the run's first pass"
        if why:
            failed += 1
            problems.append(f"{o['id']}: {why}")
    return failed


def fits(elapsed, last, seconds):
    """Whether another pass starts: time is left, and going by the last pass
    the run ends at most `OVERRUN` past `seconds`. On a slow host a run then
    stretches by a bounded share, however long its passes have become."""
    return elapsed < seconds and elapsed + last <= seconds * (1 + OVERRUN)


def pass_times(passes):
    """`(wall_s, cpu_s)` of a run: medians over its passes.

    On a shared host contention comes in bursts of a second or more at
    random moments. A pass of a few seconds is often hit by one, so over a
    handful of passes the median of whole passes flips between the clean
    and the hit level. On one worker each pass is cut into laps (see
    `Pass.laps`), which partition it; each experiment's lap is taken as its
    median across passes, and the laps are summed. A burst then has to hit
    the same experiment in most passes to move the result. On more workers,
    where experiments overlap, it is the median of whole passes.
    """
    if passes[0]["laps"]:
        per_exp = list(zip(*(p["laps"] for p in passes)))
        return tuple(
            sum(statistics.median(lap[k] for lap in laps) for laps in per_exp) for k in (0, 1))
    return (statistics.median(p["wall_s"] for p in passes),
            statistics.median(p["cpu_s"] for p in passes))


def measure_untraced(exe, workload, seed, seconds):
    common = ["--workload", workload, "--seed", str(seed)]
    setups, passes, rsss = [], [], []

    def probe_setup():
        setups.extend(spawn(exe, ["setup", *common])[0]["setup_s"] for _ in range(SETUP_PROBES))

    attempted = failed = 0
    first, problems = None, []
    start = time.monotonic()
    last = 0.0
    while not passes or fits(time.monotonic() - start, last, seconds):
        began = time.monotonic()
        probe_setup()
        out, usage = spawn(exe, ["pass", *common])
        if first is None:
            first = {o["id"]: o["digest"] for o in out["outcomes"]}
        attempted += len(out["outcomes"])
        failed += check_outcomes(out["outcomes"], first, problems)
        setups.append(out["setup_s"])
        passes.append(out)
        rsss.append(usage.ru_maxrss / 1024.0)
        last = time.monotonic() - began
    probe_setup()
    wall_s, cpu_s = pass_times(passes)
    metrics = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(rsss),
        "ok_frac": (attempted - failed) / attempted,
    }
    print(f"passes: {len(passes)}  wall/cpu s: "
          + " ".join(f"{p['wall_s']:.3f}/{p['cpu_s']:.3f}" for p in passes))
    return attempted, failed, problems, metrics


def measure_traced(exe, workload, seed, target, host):
    spans = os.path.join(target, "perfbench-spans", f"{workload}-seed{seed}.jsonl")
    out, _ = spawn(exe, ["trace", "--workload", workload, "--seed", str(seed), "--spans", spans])
    problems = list(out["fidelity"])
    failed = check_outcomes(out["outcomes"], None, problems) + len(out["fidelity"])
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    metrics["host.calib_ms"] = host["calib_ms"]
    metrics["host.nproc"] = host["nproc"]
    for kind in ("sharded", "calls", "unattributed"):
        ids = [i for i, k in out["replay"].items() if k == kind]
        print(f"replayed as {kind}: {' '.join(ids) or '-'}")
    print(f"spans: {spans}")
    return len(out["outcomes"]), failed, problems, metrics


def run_workload(spec, exe, target, host, workload, seed, seconds, trace):
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        attempted, failed, problems, values = measure_traced(exe, workload, seed, target, host)
    else:
        attempted, failed, problems, values = measure_untraced(exe, workload, seed, seconds)
    if set(values) != {m["name"] for m in declared}:
        fail(f"metrics reported {sorted(values)} differ from BENCHMARK.json")
    for p in problems:
        print(f"FAILED {workload}: {p}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {workload:<14} {name:<38} {m['value']:>16.6f} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=CAMPAIGN_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    target, exe = build()
    host, _ = spawn(exe, ["calib"])
    print(json.dumps({"host": host}))
    results = {}
    for workload in names if args.workload == "all" else [args.workload]:
        results[workload] = run_workload(spec, exe, target, host, workload,
                                         args.seed, args.seconds, args.trace)
        if args.workload == "all":
            print(json.dumps({"workload": workload, **results[workload]}))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
