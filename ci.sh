#!/usr/bin/env bash
# Offline CI for the fiveg-wild workspace.
#
# Runs the tier-1 release build, every crate's tests (root integration
# tests plus each workspace crate's unit tests) and the clippy lint gate. Everything here works with zero network access: the
# workspace has no external dependencies (see the note in Cargo.toml), so
# `--offline` is enforced to catch any accidental registry dependency.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tests: cargo test --workspace -q"
cargo test --workspace -q --offline

# The benchmark (`perfbench/`, its own Cargo workspace) builds against the
# bench crate's public API; build it here so an API change that breaks it
# fails CI instead of the next benchmark run.
echo "==> benchmark: cargo build --release --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> lint: cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> lint: cargo fmt --check"
cargo fmt --check

# --- Chaos smoke matrix -----------------------------------------------------
# Run a small campaign under every non-quiet fault scenario, against the
# experiments that exercise that scenario's layer. `--check-manifest` is the
# gate: it exits non-zero if the manifest is malformed or any experiment
# degraded. Each scenario must also record at least one recovery action.
FIG=./target/release/figures
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

smoke() {
    local sc=$1; shift
    local dir="$SMOKE_DIR/$sc"
    echo "==> chaos smoke: $sc ($*)"
    "$FIG" --seed 2021 --chaos "$sc" --out "$dir" "$@" > /dev/null
    "$FIG" --check-manifest "$dir/manifest.json"
    local events
    events=$("$FIG" --check-manifest "$dir/manifest.json" | grep -o '[0-9]* recovery events' | cut -d' ' -f1)
    if [ "$events" -eq 0 ]; then
        echo "error: scenario $sc recorded no recovery actions" >&2
        exit 1
    fi
}

smoke blockage-storm        fig9 fig17
smoke dead-zone-drive       fig9
smoke rrc-flaky             fig10
smoke transport-turbulence  fig8 fig17 fig19 bonded-uplink
smoke power-glitch          table2
smoke chaos                 table2 fig9 fig10

# Double-run determinism: the same chaos campaign, run twice, must produce
# byte-identical manifests (and so identical hashes).
echo "==> chaos smoke: double-run determinism"
"$FIG" --seed 2021 --chaos chaos --out "$SMOKE_DIR/det-a" table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/chaos/manifest.json" "$SMOKE_DIR/det-a/manifest.json"

# Resume determinism: a campaign continued with --resume finishes with the
# same manifest bytes as an uninterrupted one.
echo "==> chaos smoke: resume determinism"
"$FIG" --seed 2021 --chaos chaos --out "$SMOKE_DIR/det-b" table2 > /dev/null
"$FIG" --seed 2021 --chaos chaos --out "$SMOKE_DIR/det-b" --resume table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/chaos/manifest.json" "$SMOKE_DIR/det-b/manifest.json"

# --- Parallel determinism ----------------------------------------------------
# The scheduler contract: `--jobs 4` must produce a manifest byte-identical
# to `--jobs 1`, quiet and under chaos. `cmp` is the hash compare — any
# reordering, seed drift, or shared-RNG leak between workers fails the gate.
echo "==> parallel determinism: quiet, --jobs 1 vs --jobs 4"
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/par-s" table1 fig1 fig2 fig9 table2 fig11 > /dev/null
"$FIG" --seed 2021 --jobs 4 --out "$SMOKE_DIR/par-j" table1 fig1 fig2 fig9 table2 fig11 > /dev/null
cmp "$SMOKE_DIR/par-s/manifest.json" "$SMOKE_DIR/par-j/manifest.json"

# The paper-fidelity gate on subset dirs: expectations whose artifact is
# absent are skipped, so a partial campaign still validates — and the
# validation.txt written for the serial and parallel runs must be
# byte-identical.
echo "==> validation gate: serial vs --jobs 4 subset dirs"
"$FIG" --validate "$SMOKE_DIR/par-s" > /dev/null
"$FIG" --validate "$SMOKE_DIR/par-j" > /dev/null
cmp "$SMOKE_DIR/par-s/validation.txt" "$SMOKE_DIR/par-j/validation.txt"

echo "==> parallel determinism: chaos, --jobs 1 vs --jobs 4"
"$FIG" --seed 2021 --chaos chaos --jobs 1 --out "$SMOKE_DIR/par-cs" table2 fig9 fig10 > /dev/null
"$FIG" --seed 2021 --chaos chaos --jobs 4 --out "$SMOKE_DIR/par-cj" table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/par-cs/manifest.json" "$SMOKE_DIR/par-cj/manifest.json"

# Resume + jobs: rows resumed from a partial campaign are skipped before the
# work queue is built, and the finished manifest still matches serial bytes.
echo "==> parallel determinism: --resume with --jobs 4"
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/par-r" table1 fig1 > /dev/null
"$FIG" --seed 2021 --jobs 4 --out "$SMOKE_DIR/par-r" --resume table1 fig1 fig2 fig9 table2 fig11 > /dev/null
cmp "$SMOKE_DIR/par-s/manifest.json" "$SMOKE_DIR/par-r/manifest.json"

# --- Intra-experiment sharding -------------------------------------------------
# Shard fan-out is a scheduling decision, never a semantics decision: the
# sharded experiments (fig15/fig16/fig17/fig18*/ablation-pensieve/
# bonded-uplink) must render byte-identical artifacts serially, on a
# --jobs 4 pool (where each shard is its own work unit), and with fan-out
# disabled (--no-shard).
SHARD_IDS="fig15 fig16 fig18c bonded-uplink"
echo "==> shard plane: --jobs 1 vs --jobs 4 vs --no-shard"
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/shard-s" $SHARD_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 4 --out "$SMOKE_DIR/shard-j" $SHARD_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 4 --no-shard --out "$SMOKE_DIR/shard-n" $SHARD_IDS > /dev/null
cmp "$SMOKE_DIR/shard-s/manifest.json" "$SMOKE_DIR/shard-j/manifest.json"
cmp "$SMOKE_DIR/shard-s/manifest.json" "$SMOKE_DIR/shard-n/manifest.json"
for f in "$SMOKE_DIR"/shard-s/*.txt; do
    cmp "$f" "$SMOKE_DIR/shard-j/$(basename "$f")"
    cmp "$f" "$SMOKE_DIR/shard-n/$(basename "$f")"
done

# Same contract under chaos: per-shard fault worlds are keyed by
# (attempt seed, id, shard) — never by which worker ran the shard when.
echo "==> shard plane: chaos byte-identity"
"$FIG" --seed 2021 --chaos chaos --jobs 4 --out "$SMOKE_DIR/shard-ca" fig17 fig18c bonded-uplink > /dev/null
"$FIG" --seed 2021 --chaos chaos --jobs 1 --no-shard --out "$SMOKE_DIR/shard-cb" fig17 fig18c bonded-uplink > /dev/null
cmp "$SMOKE_DIR/shard-ca/manifest.json" "$SMOKE_DIR/shard-cb/manifest.json"
# Double-run determinism for the bonded family specifically, quiet and
# chaos: the same campaign twice must render identical artifact bytes.
echo "==> shard plane: bonded-uplink double-run determinism"
"$FIG" --seed 2021 --chaos chaos --jobs 4 --out "$SMOKE_DIR/shard-ca2" fig17 fig18c bonded-uplink > /dev/null
cmp "$SMOKE_DIR/shard-ca/bonded-uplink.txt" "$SMOKE_DIR/shard-ca2/bonded-uplink.txt"
"$FIG" --seed 2021 --out "$SMOKE_DIR/bond-q1" bonded-uplink > /dev/null
"$FIG" --seed 2021 --out "$SMOKE_DIR/bond-q2" bonded-uplink > /dev/null
cmp "$SMOKE_DIR/bond-q1/bonded-uplink.txt" "$SMOKE_DIR/bond-q2/bonded-uplink.txt"

# --profile must render the hot-spot table (campaign wall ranking plus the
# heaviest telemetry spans) without touching the artifacts.
echo "==> shard plane: --profile smoke"
"$FIG" --seed 2021 --profile --out "$SMOKE_DIR/shard-p" fig16 table9 > "$SMOKE_DIR/profile.out"
grep -q '==== PROFILE' "$SMOKE_DIR/profile.out"
grep -q 'fig16' "$SMOKE_DIR/profile.out"
"$FIG" --seed 2021 --out "$SMOKE_DIR/shard-p2" fig16 table9 > /dev/null
cmp "$SMOKE_DIR/shard-p2/manifest.json" "$SMOKE_DIR/shard-p/manifest.json"

# --- Cancellation plane --------------------------------------------------------
# Interrupt safety: SIGINT a campaign mid-flight; the binary must cancel
# the in-flight attempt cooperatively, return every experiment not yet
# started at once without running it, flush a parseable manifest with a
# row for every requested id, and exit 130. `--resume` then finishes the campaign
# and every artifact must be byte-identical to an uninterrupted run.
echo "==> interrupt safety: SIGINT mid-campaign, then --resume"
INT_IDS="fig3 fig4 fig6 fig7 fig16 fig17"
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/int-ref" $INT_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/int" $INT_IDS > /dev/null 2> "$SMOKE_DIR/int.err" &
fig_pid=$!
sleep 1.5
kill -INT "$fig_pid"
rc=0; wait "$fig_pid" || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "error: interrupted campaign exited $rc, expected 130" >&2
    cat "$SMOKE_DIR/int.err" >&2
    exit 1
fi
# The kill landed mid-campaign: the flushed manifest must parse but be
# incomplete (different bytes than the finished reference).
if cmp -s "$SMOKE_DIR/int-ref/manifest.json" "$SMOKE_DIR/int/manifest.json"; then
    echo "error: SIGINT landed after the campaign finished — gate proved nothing" >&2
    exit 1
fi
# An in-flight row cancelled at kill time is recorded `interrupted`, and
# --check-manifest must then refuse the manifest as incomplete.
if grep -q '"status":"interrupted"' "$SMOKE_DIR/int/manifest.json"; then
    if "$FIG" --check-manifest "$SMOKE_DIR/int/manifest.json" > /dev/null 2>&1; then
        echo "error: --check-manifest accepted an interrupted manifest" >&2
        exit 1
    fi
fi
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 1 --out "$SMOKE_DIR/int" --resume $INT_IDS > /dev/null
cmp "$SMOKE_DIR/int-ref/manifest.json" "$SMOKE_DIR/int/manifest.json"
for f in "$SMOKE_DIR"/int-ref/*.txt; do
    cmp "$f" "$SMOKE_DIR/int/$(basename "$f")"
done

# --- Telemetry smoke -----------------------------------------------------------
# The observability plane: per-experiment JSONL/Chrome-trace files must be
# non-empty, deterministic across reruns, and identical serial vs --jobs 4
# (they carry only simulated time). telemetry.txt is excluded — its runner
# section is wall-clock by design.
echo "==> telemetry smoke: figures --telemetry"
"$FIG" --seed 2021 --telemetry "$SMOKE_DIR/tel-a" --out "$SMOKE_DIR/telo-a" table2 fig9 > /dev/null
for id in table2 fig9; do
    test -s "$SMOKE_DIR/tel-a/$id.jsonl"
    test -s "$SMOKE_DIR/tel-a/$id.trace.json"
done
grep -q '"name":"radio/drive"' "$SMOKE_DIR/tel-a/fig9.jsonl"
grep -q '"name":"power/record"' "$SMOKE_DIR/tel-a/table2.jsonl"
grep -q '"name":"rrc/promotion"' "$SMOKE_DIR/tel-a/table2.jsonl"
test -s "$SMOKE_DIR/tel-a/telemetry.txt"

echo "==> telemetry determinism: double run"
"$FIG" --seed 2021 --telemetry "$SMOKE_DIR/tel-b" --out "$SMOKE_DIR/telo-b" table2 fig9 > /dev/null
for id in table2 fig9; do
    cmp "$SMOKE_DIR/tel-a/$id.jsonl" "$SMOKE_DIR/tel-b/$id.jsonl"
    cmp "$SMOKE_DIR/tel-a/$id.trace.json" "$SMOKE_DIR/tel-b/$id.trace.json"
done

echo "==> telemetry determinism: --jobs 4"
"$FIG" --seed 2021 --jobs 4 --telemetry "$SMOKE_DIR/tel-j" --out "$SMOKE_DIR/telo-j" table2 fig9 > /dev/null
for id in table2 fig9; do
    cmp "$SMOKE_DIR/tel-a/$id.jsonl" "$SMOKE_DIR/tel-j/$id.jsonl"
    cmp "$SMOKE_DIR/tel-a/$id.trace.json" "$SMOKE_DIR/tel-j/$id.trace.json"
done

# Observing must not change the world: the campaign run with the collector
# installed renders the same manifest and reports as one without it.
echo "==> telemetry off-path: manifest unchanged by --telemetry"
"$FIG" --seed 2021 --out "$SMOKE_DIR/telo-plain" table2 fig9 > /dev/null
cmp "$SMOKE_DIR/telo-plain/manifest.json" "$SMOKE_DIR/telo-a/manifest.json"
for id in table2 fig9; do
    cmp "$SMOKE_DIR/telo-plain/$id.txt" "$SMOKE_DIR/telo-a/$id.txt"
done

# Feature-off determinism: a binary built without the telemetry feature
# compiled in at all must produce byte-identical campaign output.
echo "==> telemetry feature gate: --no-default-features build"
cargo build --release --offline -p fiveg-bench --no-default-features
"$FIG" --seed 2021 --out "$SMOKE_DIR/telo-nofeat" table2 fig9 > /dev/null
cmp "$SMOKE_DIR/telo-plain/manifest.json" "$SMOKE_DIR/telo-nofeat/manifest.json"
for id in table2 fig9; do
    cmp "$SMOKE_DIR/telo-plain/$id.txt" "$SMOKE_DIR/telo-nofeat/$id.txt"
done
# Restore the default (telemetry-enabled) binary for anything downstream.
cargo build --release --offline -p fiveg-bench

# --- Guard plane & stress harness ---------------------------------------------
# Guards-off feature gate: a binary with the telemetry plane still on but
# the `guards` feature compiled out must render byte-identical campaign
# output — isolating the guard hooks specifically (the nofeat gate above
# drops both planes at once).
echo "==> guard feature gate: --no-default-features --features telemetry build"
cargo build --release --offline -p fiveg-bench --no-default-features --features telemetry
"$FIG" --seed 2021 --out "$SMOKE_DIR/guard-off" table2 fig9 > /dev/null
cmp "$SMOKE_DIR/telo-plain/manifest.json" "$SMOKE_DIR/guard-off/manifest.json"
for id in table2 fig9; do
    cmp "$SMOKE_DIR/telo-plain/$id.txt" "$SMOKE_DIR/guard-off/$id.txt"
done
cargo build --release --offline -p fiveg-bench

# --- Campaign observatory ------------------------------------------------------
# `--obs` artifacts carry sim-time facts only: metrics.json, observatory.txt,
# and the collapsed-stack flamegraphs must be byte-identical across reruns,
# across --jobs 4, and with shard fan-out disabled — quiet and under chaos.
# fig18c keeps a sharded experiment in the matrix.
OBS_IDS="table2 fig9 fig18c"
echo "==> observatory: quiet byte-identity (rerun, --jobs 4, --no-shard)"
# shellcheck disable=SC2086
"$FIG" --seed 2021 --obs "$SMOKE_DIR/obs-a" --out "$SMOKE_DIR/obso-a" $OBS_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --obs "$SMOKE_DIR/obs-b" --out "$SMOKE_DIR/obso-b" $OBS_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 4 --obs "$SMOKE_DIR/obs-j" --out "$SMOKE_DIR/obso-j" $OBS_IDS > /dev/null
# shellcheck disable=SC2086
"$FIG" --seed 2021 --jobs 4 --no-shard --obs "$SMOKE_DIR/obs-n" --out "$SMOKE_DIR/obso-n" $OBS_IDS > /dev/null
for f in metrics.json observatory.txt campaign.folded table2.folded fig9.folded fig18c.folded; do
    cmp "$SMOKE_DIR/obs-a/$f" "$SMOKE_DIR/obs-b/$f"
    cmp "$SMOKE_DIR/obs-a/$f" "$SMOKE_DIR/obs-j/$f"
    cmp "$SMOKE_DIR/obs-a/$f" "$SMOKE_DIR/obs-n/$f"
done
grep -q '"schema":"obs-v1"' "$SMOKE_DIR/obs-a/metrics.json"
grep -q '^radio/drive' "$SMOKE_DIR/obs-a/fig9.folded"

# Observing must not change the world: the campaign run with --obs renders
# the same manifest as one without it.
# shellcheck disable=SC2086
"$FIG" --seed 2021 --out "$SMOKE_DIR/obso-plain" $OBS_IDS > /dev/null
cmp "$SMOKE_DIR/obso-plain/manifest.json" "$SMOKE_DIR/obso-a/manifest.json"

echo "==> observatory: chaos byte-identity"
"$FIG" --seed 2021 --chaos chaos --obs "$SMOKE_DIR/obs-ca" --out "$SMOKE_DIR/obso-ca" table2 fig9 fig10 > /dev/null
"$FIG" --seed 2021 --chaos chaos --jobs 4 --obs "$SMOKE_DIR/obs-cj" --out "$SMOKE_DIR/obso-cj" table2 fig9 fig10 > /dev/null
cmp "$SMOKE_DIR/obs-ca/metrics.json" "$SMOKE_DIR/obs-cj/metrics.json"
cmp "$SMOKE_DIR/obs-ca/campaign.folded" "$SMOKE_DIR/obs-cj/campaign.folded"

# Self-diff discipline: a store diffed against an identical rerun reports
# zero drift even under --obs-strict …
echo "==> observatory: self-diff is empty"
"$FIG" --obs-strict --obs-diff "$SMOKE_DIR/obs-a" "$SMOKE_DIR/obs-b" > /dev/null

# … while a genuinely different campaign (chaos vs quiet, different id set)
# must breach the fail band and exit non-zero under strict.
if "$FIG" --obs-strict --obs-diff "$SMOKE_DIR/obs-a" "$SMOKE_DIR/obs-ca" > /dev/null 2>&1; then
    echo "error: --obs-strict accepted chaos-vs-quiet telemetry drift" >&2
    exit 1
fi

# Stress smoke: a fixed quiet sweep must pass with zero failures (exit 0),
# and the summary table must be byte-identical across a rerun with a
# different worker count (stress.txt carries sim-side facts only).
echo "==> stress smoke: quiet sweep, fixed seed"
"$FIG" --stress 6 --stress-seed 2021 --stress-scenario quiet --jobs 4 \
    --out "$SMOKE_DIR/stress-a" > /dev/null
"$FIG" --stress 6 --stress-seed 2021 --stress-scenario quiet --jobs 2 \
    --out "$SMOKE_DIR/stress-b" > /dev/null
cmp "$SMOKE_DIR/stress-a/stress/stress.txt" "$SMOKE_DIR/stress-b/stress/stress.txt"

# Canary smoke: the find→shrink→replay loop end to end. A deliberately
# broken invariant must fail the sweep (exit 1), produce a reproducer,
# and that reproducer must replay to the identical violation (exit 0).
echo "==> stress smoke: canary find, shrink, replay"
if "$FIG" --stress 1 --stress-seed 7 --stress-canary \
    --out "$SMOKE_DIR/stress-c" > /dev/null 2>&1; then
    echo "error: canary sweep exited 0 — broken invariant not detected" >&2
    exit 1
fi
repro=$(ls "$SMOKE_DIR"/stress-c/stress/repro-c0-*.json)
grep -q '"verdict":"guard-violation"' "$repro"
"$FIG" --repro "$repro" > /dev/null

# Strict gate: a healthy campaign under --strict still exits 0.
echo "==> strict gate: healthy campaign"
"$FIG" --seed 2021 --strict --out "$SMOKE_DIR/strict-ok" table2 > /dev/null

# --- Campaign perf baseline ---------------------------------------------------
# Record the full-campaign wall clock and events/sec on all cores into
# results/BENCH_campaign.json (kept out of manifest.json so manifests stay
# byte-comparable across machines). The same run renders the full quiet
# campaign for the paper-fidelity gate below.
#
# Each timed sample is first compared against the *committed* baseline via
# --bench-baseline: a per-experiment wall-clock regression beyond the
# tolerance (2x and +0.25 s) prints a warning. Warn-only here — wall
# clocks are machine-dependent — but FIVEG_BENCH_STRICT=1 adds
# --bench-strict, turning regressions into a hard CI failure (exit 1) for
# perf-sensitive checkouts. FIVEG_BENCH_SAMPLES=N repeats the timed
# campaign N times to smooth scheduler noise; the last sample is recorded.
SAMPLES="${FIVEG_BENCH_SAMPLES:-1}"
STRICT_FLAG=""
if [ "${FIVEG_BENCH_STRICT:-0}" != "0" ]; then
    STRICT_FLAG="--bench-strict"
fi
for i in $(seq 1 "$SAMPLES"); do
    echo "==> perf baseline: sample $i/$SAMPLES (figures all --bench-out)"
    # shellcheck disable=SC2086
    "$FIG" --seed 2021 --out "$SMOKE_DIR/quiet-all" --bench-out "$SMOKE_DIR/bench-$i.json" \
        --bench-baseline results/BENCH_campaign.json $STRICT_FLAG all > /dev/null
done
cp "$SMOKE_DIR/bench-$SAMPLES.json" results/BENCH_campaign.json
grep -o '"speedup_est":[0-9.]*' results/BENCH_campaign.json

# The sharded fig15 must charge budget events now that the walking loops
# and mlkit training are metered — zero means the accounting regressed.
fig15_events=$(grep -o '"id":"fig15"[^}]*' results/BENCH_campaign.json | grep -o '"events":[0-9]*' | head -1 | cut -d: -f2)
if [ -z "${fig15_events:-}" ] || [ "$fig15_events" -eq 0 ]; then
    echo "error: fig15 recorded zero budget events in BENCH_campaign.json" >&2
    exit 1
fi

# The freshly regenerated baseline must accept the manifest it was derived
# from under --check-strict (seed, scenario, statuses, and recovery-event
# counts all within the tolerance bands).
echo "==> manifest gate: --check-strict against the fresh perf baseline"
"$FIG" --check-strict --check-manifest "$SMOKE_DIR/quiet-all/manifest.json" > /dev/null

# --- Observatory baseline ------------------------------------------------------
# The full quiet campaign's telemetry rollup must sit inside the tolerance
# bands of the committed observatory baseline. Run separately from the
# timed perf samples above so --obs never skews the wall clocks.
echo "==> observatory gate: full campaign vs results/OBS_baseline.json"
"$FIG" --seed 2021 --obs "$SMOKE_DIR/obs-full" --out "$SMOKE_DIR/obs-full-out" all > /dev/null
"$FIG" --obs-strict --obs-diff results/OBS_baseline.json "$SMOKE_DIR/obs-full"

# --- Paper-fidelity gate -------------------------------------------------------
# Every artifact the quiet campaign just rendered must sit inside its
# tolerance band from the expected-value table (bench::expect); any FAIL
# exits non-zero. The committed goldens must pass too, and the rerun must
# leave results/validation.txt byte-identical (the report is a pure
# function of the artifacts).
echo "==> validation gate: quiet campaign"
"$FIG" --validate "$SMOKE_DIR/quiet-all"

echo "==> validation gate: committed goldens"
cp results/validation.txt "$SMOKE_DIR/validation.before"
"$FIG" --validate results > /dev/null
cmp results/validation.txt "$SMOKE_DIR/validation.before"

echo "==> ci: all green"
