#!/usr/bin/env bash
# Perf smoke test: build Release, run bench_sim_throughput, and fail if any
# epochs/sec point regresses more than 20% against the committed baseline
# (BENCH_sim_throughput.json at the repo root). The bench runs twice — once
# plain and once with --fault-injector (a FaultInjector attached but with no
# points armed) — and BOTH runs are held to the same gate, pinning the
# fault-injection substrate's compiled-in-but-disabled cost at ~zero.
#
# The bench also measures the managed control loop with an observability
# bundle attached but disabled; the reported obs_disabled_overhead_pct must
# stay under OBS_OVERHEAD_PCT (2%) — disabled instrumentation is one branch
# per site and must never grow a measurable cost (DESIGN.md §8). Both obs
# and sensing overheads are paired against the managed_full_solve
# configuration (incremental fast path off), so the ratios keep pricing
# instrumentation against a solving control tick rather than against the
# ~100ns replay tick, where any fixed cost would read as tens of percent.
#
# Likewise for realistic sensing (DESIGN.md §10): sensing_overhead_pct — the
# managed loop with the online MRC estimator on the sample path at the
# default sampling budget, noise model off — must stay under
# SENSING_OVERHEAD_PCT (10%). Sensing disabled is priced by the plain
# managed point itself (one bool test), and the full noise model's cost is
# reported as sensing_noisy_overhead_pct but not gated.
#
# The epoch fast path (DESIGN.md §12) is held to two absolute floors on top
# of the relative gates: the default managed loop must sustain at least
# MANAGED_FLOOR epochs/sec at 4 apps, and snapshot-based what-if evaluation
# must be at least WHATIF_SPEEDUP_MIN times faster than fresh-machine
# re-simulation over the oracle-style candidate schedule. The bench's
# --scalar-check mode (incremental vs full-solve machines and the reference
# solve of tests/machine_reference.h, bitwise) runs first: a divergence
# there is a correctness bug, and perf numbers from a wrong kernel are
# meaningless.
#
# bench_serve (the request-serving subsystem, DESIGN.md §9) is gated the
# same way against BENCH_serve.json: simulated requests/sec of the raw
# discrete-event engine and epochs/sec of the SLO-mode control loop.
#
# bench_governor (the pluggable SLO governors, DESIGN.md §15) is gated
# against BENCH_governor.json: epochs/sec of the SLO-mode serve loop per
# registered governor gets the usual 20% band, and the fresh run's
# learned_overhead_pct — the slowest learned governor's managed loop priced
# against the threshold loop — must stay under GOVERNOR_OVERHEAD_PCT (10%).
#
# bench_fleet (the fault-tolerant fleet layer, DESIGN.md §13) is gated
# against BENCH_fleet.json: node-ticks/sec of the parallel fleet control
# loop gets the usual 20% band, but the canonical robustness scenario's
# outcome points (fleet p99 slowdown, completed migrations, verified
# rollbacks, crash-wave recovery epochs) are pure functions of the seed
# and are gated EXACTLY — any drift there is a behavior change, not noise,
# and must arrive as a deliberate baseline refresh. Its thread-scaling
# points (the default thread count, node-ticks/sec at 1 thread, and the
# ratio of the two rates) depend on the host's cores and are printed but
# not gated, as is the canonical scenario's migration rollback ratio.
#
# Usage: tools/run_perf_smoke.sh [build-dir]
#
# The threshold is deliberately loose — CI machines are noisy — so a failure
# here means a real algorithmic regression (e.g. reintroducing per-epoch
# allocations or exact solves on the hot path), not jitter. Refresh the
# baselines by running the benches from the repo root on a quiet machine:
#   ./<build-dir>/bench/bench_sim_throughput --min-seconds=1
#   ./<build-dir>/bench/bench_serve --min-seconds=1
#   ./<build-dir>/bench/bench_governor --min-seconds=1
#   ./<build-dir>/bench/bench_fleet --min-seconds=1
# If the machine shows run-to-run swings approaching the gate (the exact-MRC
# points are the most boost-state-sensitive), run the bench a few times and
# commit the per-point MINIMUM as the baseline — a conservative baseline
# still catches algorithmic regressions, while a lucky fast run would turn
# the gate into a frequency-governor test.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-perf}"
BASELINE="BENCH_sim_throughput.json"
SERVE_BASELINE="BENCH_serve.json"
GOVERNOR_BASELINE="BENCH_governor.json"
FLEET_BASELINE="BENCH_fleet.json"
REGRESSION_PCT=20
OBS_OVERHEAD_PCT=2
SENSING_OVERHEAD_PCT=10
GOVERNOR_OVERHEAD_PCT=10
MANAGED_FLOOR=3200000
WHATIF_SPEEDUP_MIN=10
# The fleet outcome points gated on exact equality; any other fleet point
# but the throughput band is reported only.
FLEET_EXACT_POINTS='^fleet_(p99_slowdown|migrations|migration_rollbacks|recovery_epochs)$'

for baseline in "$BASELINE" "$SERVE_BASELINE" "$GOVERNOR_BASELINE" \
    "$FLEET_BASELINE"; do
  if [[ ! -f "$baseline" ]]; then
    echo "run_perf_smoke: no committed baseline at $baseline" >&2
    exit 1
  fi
done

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_sim_throughput bench_serve \
  bench_governor bench_fleet -j "$(nproc)"

FRESH="$(mktemp /tmp/bench_sim_throughput.XXXXXX.json)"
FRESH_INJ="$(mktemp /tmp/bench_sim_throughput_inj.XXXXXX.json)"
FRESH_SERVE="$(mktemp /tmp/bench_serve.XXXXXX.json)"
FRESH_GOVERNOR="$(mktemp /tmp/bench_governor.XXXXXX.json)"
FRESH_FLEET="$(mktemp /tmp/bench_fleet.XXXXXX.json)"
trap 'rm -f "$FRESH" "$FRESH_INJ" "$FRESH_SERVE" "$FRESH_GOVERNOR" \
  "$FRESH_FLEET"' EXIT
# Correctness first: the kernels must agree bitwise before their speed
# means anything (set -e aborts on divergence).
"$BUILD_DIR/bench/bench_sim_throughput" --scalar-check
"$BUILD_DIR/bench/bench_sim_throughput" --json="$FRESH" --min-seconds=0.5
"$BUILD_DIR/bench/bench_sim_throughput" --json="$FRESH_INJ" \
  --min-seconds=0.5 --fault-injector
"$BUILD_DIR/bench/bench_serve" --json="$FRESH_SERVE" --min-seconds=0.5
"$BUILD_DIR/bench/bench_governor" --json="$FRESH_GOVERNOR" --min-seconds=0.5
# Exits non-zero if the canonical fleet scenario violates job conservation
# (set -e aborts): an invariant break makes the perf numbers moot.
"$BUILD_DIR/bench/bench_fleet" --json="$FRESH_FLEET" --min-seconds=0.5

# Every bench emits one result object per line, in one of two shapes:
#   {"mode": "exact", "apps": 2, "epochs_per_sec": 12345.6}   (sim_throughput)
#   {"point": "engine_requests_per_sec", "value": 123.4}      (the others)
# so plain grep/sed suffice — no JSON parser needed.
point_value() {  # point_value FILE MODE APPS -> epochs_per_sec (or empty)
  grep "\"mode\": \"$2\", \"apps\": $3," "$1" |
    sed -n 's/.*"epochs_per_sec": \([0-9.]*\).*/\1/p'
}

fail=0
# gate_points FILE LABEL BASELINE FIELD NAME_RE VALUE_RE [BAND_RE EXACT_RE]
# Gates every baseline point of BASELINE against the fresh run in FILE.
# FIELD is epochs_per_sec for mode/apps points (NAME_RE matches the mode)
# or value for named points (NAME_RE matches the name); VALUE_RE matches a
# value. Without BAND_RE every point gets the one-sided REGRESSION_PCT
# band. With it, only names matching BAND_RE do; names matching EXACT_RE
# must equal the baseline exactly, and the rest are reported, not gated.
gate_points() {
  local file="$1" label="$2" baseline="$3" field="$4" name_re="$5"
  local value_re="$6" band_re="${7:-}" exact_re="${8:-}"
  local line name point select base now floor verdict
  while IFS= read -r line; do
    if [[ "$field" == epochs_per_sec ]]; then
      local mode apps
      mode="$(printf '%s\n' "$line" |
        sed -n "s/.*\"mode\": \"\($name_re\)\".*/\1/p")"
      apps="$(printf '%s\n' "$line" | sed -n 's/.*"apps": \([0-9]*\).*/\1/p')"
      [[ -n "$mode" && -n "$apps" ]] || continue
      point="$mode"
      name="mode=$mode apps=$apps"
      select="\"mode\": \"$mode\", \"apps\": $apps,"
    else
      point="$(printf '%s\n' "$line" |
        sed -n "s/.*\"point\": \"\($name_re\)\".*/\1/p")"
      [[ -n "$point" ]] || continue
      name="point=$point"
      select="\"point\": \"$point\""
    fi
    base="$(printf '%s\n' "$line" |
      sed -n "s/.*\"$field\": \($value_re\).*/\1/p")"
    [[ -n "$base" ]] || continue
    now="$(grep "$select" "$file" |
      sed -n "s/.*\"$field\": \($value_re\).*/\1/p")"
    if [[ -z "$now" ]]; then
      echo "run_perf_smoke: FAIL [$label] $name missing from fresh run"
      fail=1
    elif [[ -z "$band_re" || "$point" =~ $band_re ]]; then
      # now < base * (1 - pct/100) ?
      floor="$(awk -v b="$base" -v p="$REGRESSION_PCT" \
        'BEGIN { printf "%.1f", b * (1 - p / 100) }')"
      verdict="$(awk -v n="$now" -v f="$floor" 'BEGIN { print (n < f) }')"
      if [[ "$verdict" == 1 ]]; then
        echo "run_perf_smoke: FAIL [$label] $name" \
          "$field=$now < floor=$floor (baseline=$base)"
        fail=1
      else
        echo "run_perf_smoke: ok   [$label] $name" \
          "$field=$now (baseline=$base, floor=$floor)"
      fi
    elif [[ "$point" =~ $exact_re ]]; then
      # Deterministic outcome: exact match, both directions.
      if [[ "$now" != "$base" ]]; then
        echo "run_perf_smoke: FAIL [$label] $name" \
          "value=$now != baseline=$base (deterministic point drifted —" \
          "behavior change, refresh the baseline deliberately)"
        fail=1
      else
        echo "run_perf_smoke: ok   [$label] $name value=$now (exact match)"
      fi
    else
      echo "run_perf_smoke: info [$label] $name" \
        "value=$now (baseline=$base, not gated)"
    fi
  done < <(grep "\"$field\"" "$baseline")
}

# gate_max_pct FILE LABEL KEY MAX WHAT [SUFFIX] — the fresh run's KEY (a
# signed percentage) must stay below MAX; WHAT [SUFFIX] names it.
gate_max_pct() {
  local file="$1" label="$2" key="$3" max="$4" what="$5" suffix="${6:-}"
  local pct verdict
  pct="$(sed -n "s/.*\"$key\": \(-\{0,1\}[0-9.]*\).*/\1/p" "$file")"
  if [[ -z "$pct" ]]; then
    echo "run_perf_smoke: FAIL [$label] $key missing from fresh run"
    fail=1
    return
  fi
  verdict="$(awk -v p="$pct" -v max="$max" 'BEGIN { print (p >= max) }')"
  if [[ "$verdict" == 1 ]]; then
    echo "run_perf_smoke: FAIL [$label] $what ${pct}% >= ${max}%$suffix"
    fail=1
  else
    echo "run_perf_smoke: ok   [$label] $what ${pct}% < ${max}%$suffix"
  fi
}

UNSIGNED='[0-9.]*'
SIGNED='-\{0,1\}[0-9.]*'
gate_points "$FRESH" "plain" "$BASELINE" epochs_per_sec '[a-z_]*' "$UNSIGNED"
gate_points "$FRESH_INJ" "injector-disarmed" "$BASELINE" epochs_per_sec \
  '[a-z_]*' "$UNSIGNED"
gate_points "$FRESH_SERVE" "serve" "$SERVE_BASELINE" value '[a-z_]*' \
  "$UNSIGNED"
gate_points "$FRESH_GOVERNOR" "governor" "$GOVERNOR_BASELINE" value \
  '[a-z_]*' "$UNSIGNED"
gate_max_pct "$FRESH_GOVERNOR" "governor" learned_overhead_pct \
  "$GOVERNOR_OVERHEAD_PCT" "learned-governor managed-loop overhead" \
  " vs threshold"
# Fleet point names carry digits (fleet_p99_slowdown) and the outcome
# points are deterministic: gated on exact equality rather than a band.
# Host-dependent thread scaling and the rollback ratio are reported only.
gate_points "$FRESH_FLEET" "fleet" "$FLEET_BASELINE" value '[a-z0-9_]*' \
  "$SIGNED" '^fleet_node_ticks_per_sec$' "$FLEET_EXACT_POINTS"
gate_max_pct "$FRESH" "plain" obs_disabled_overhead_pct "$OBS_OVERHEAD_PCT" \
  "disabled-observability overhead"
gate_max_pct "$FRESH" "plain" sensing_overhead_pct "$SENSING_OVERHEAD_PCT" \
  "sensing estimator overhead"

check_absolute_floor() {  # check_absolute_floor FILE LABEL MODE APPS FLOOR
  local file="$1" label="$2" mode="$3" apps="$4" floor="$5" now verdict
  now="$(point_value "$file" "$mode" "$apps")"
  if [[ -z "$now" ]]; then
    echo "run_perf_smoke: FAIL [$label] mode=$mode apps=$apps" \
      "missing from fresh run"
    fail=1
    return
  fi
  verdict="$(awk -v n="$now" -v f="$floor" 'BEGIN { print (n < f) }')"
  if [[ "$verdict" == 1 ]]; then
    echo "run_perf_smoke: FAIL [$label] mode=$mode apps=$apps" \
      "epochs_per_sec=$now < absolute floor=$floor"
    fail=1
  else
    echo "run_perf_smoke: ok   [$label] mode=$mode apps=$apps" \
      "epochs_per_sec=$now >= absolute floor=$floor"
  fi
}
check_absolute_floor "$FRESH" "plain" managed 4 "$MANAGED_FLOOR"

check_whatif_speedup() {  # check_whatif_speedup FILE LABEL
  local file="$1" label="$2" speedup verdict
  speedup="$(sed -n 's/.*"whatif_snapshot_speedup": \([0-9.]*\).*/\1/p' \
    "$file")"
  if [[ -z "$speedup" ]]; then
    echo "run_perf_smoke: FAIL [$label] whatif_snapshot_speedup" \
      "missing from fresh run"
    fail=1
    return
  fi
  verdict="$(awk -v s="$speedup" -v min="$WHATIF_SPEEDUP_MIN" \
    'BEGIN { print (s < min) }')"
  if [[ "$verdict" == 1 ]]; then
    echo "run_perf_smoke: FAIL [$label] what-if snapshot speedup" \
      "${speedup}x < ${WHATIF_SPEEDUP_MIN}x over fresh re-simulation"
    fail=1
  else
    echo "run_perf_smoke: ok   [$label] what-if snapshot speedup" \
      "${speedup}x >= ${WHATIF_SPEEDUP_MIN}x over fresh re-simulation"
  fi
}
check_whatif_speedup "$FRESH" "plain"

if [[ "$fail" != 0 ]]; then
  echo "run_perf_smoke: REGRESSION DETECTED (>${REGRESSION_PCT}% below baseline)"
  exit 1
fi
echo "run_perf_smoke: all points within ${REGRESSION_PCT}% of baseline"
