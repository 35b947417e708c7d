#!/usr/bin/env bash
# bench.sh — run the performance benchmark suite and record the
# trajectory point for this tree into BENCH_PR7.json.
#
# The suite runs twice where it matters: once with PGO off and once
# consuming the committed profile (cmd/ndpsim/default.pgo, regenerated
# by scripts/pgo.sh), so the file records the PGO delta explicitly.
#
# Metrics recorded (see DESIGN.md "Performance" and section 3d):
#   sim_instr_per_s        BenchmarkSimulatorThroughput, PGO-on build
#   sim_instr_per_s_nopgo  same benchmark, -pgo=off build
#   pgo_speedup_x          the ratio of the two
#   sims_per_s             BenchmarkRunSmall (build + warmup + measure)
#   events_per_s           BenchmarkEngineStep (calendar-queue dispatch)
#   sweep_serial_instr_per_s  BenchmarkSweepSerial
#   lookup_dense_ns        BenchmarkFlattenedLookup/dense
#   lookup_sparse_ns       BenchmarkFlattenedLookup/sparse (lazy chunks)
#   touch_cached_ns        BenchmarkTouchHit/cached (positive VPN cache)
#   touch_present_ns       BenchmarkTouchHit/present (Table.Present path)
#   bytes_per_mapped_page  BenchmarkFlattenedReferenceSweep metadata/page
#   peak_rss_kb            max RSS of the reference ndpsim sweep
#                          (via /usr/bin/time; 0 when unavailable)
#
# Gates (the perf_opt contract — CI fails the bench job on violation):
#   allocation budgets   BenchmarkSimulatorThroughput <= SIM_ALLOC_BUDGET
#                        (raised over PR6: lazy chunk materialization
#                        converts two slab allocations per flat node into
#                        per-chunk allocations — more allocs, ~1.2 MB less
#                        resident per node); BenchmarkStepThroughput* and
#                        the lookup/touch microbenchmarks <= STEP_ALLOC_BUDGET
#   events/s floor       events_per_s >= EVENTS_SPEEDUP_FLOOR x PR6
#   sim-instr/s floor    sim_instr_per_s >= SIM_SPEEDUP_FLOOR x PR6
#                        (regression guard below 1.0: shared CI runners
#                        jitter by more than the effect size, DESIGN.md 3c;
#                        the honest same-box ratio is recorded separately)
#   metadata budget      bytes_per_mapped_page <= META_BYTES_BUDGET
#
# Scale knobs (CI runs reduced): BENCHTIME_RUNS, BENCHTIME_EVENTS,
# BENCHTIME_STEPS, BENCHTIME_SWEEPS, BENCHTIME_MICRO. OUT overrides the
# output path. SKIP_NOPGO=1 skips the PGO-off pass (records 0).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME_RUNS=${BENCHTIME_RUNS:-30x}
BENCHTIME_EVENTS=${BENCHTIME_EVENTS:-300000x}
BENCHTIME_STEPS=${BENCHTIME_STEPS:-30000x}
BENCHTIME_SWEEPS=${BENCHTIME_SWEEPS:-5x}
BENCHTIME_MICRO=${BENCHTIME_MICRO:-2000000x}
OUT=${OUT:-BENCH_PR7.json}
SIM_ALLOC_BUDGET=${SIM_ALLOC_BUDGET:-1200}
STEP_ALLOC_BUDGET=${STEP_ALLOC_BUDGET:-2}
EVENTS_SPEEDUP_FLOOR=${EVENTS_SPEEDUP_FLOOR:-0.80}
SIM_SPEEDUP_FLOOR=${SIM_SPEEDUP_FLOOR:-0.80}
META_BYTES_BUDGET=${META_BYTES_BUDGET:-256}
PGO=$PWD/cmd/ndpsim/default.pgo

runs=$(go test -run=NONE -bench='BenchmarkSimulatorThroughput|BenchmarkRunSmall' \
	-benchmem -benchtime "$BENCHTIME_RUNS" -pgo="$PGO" . )
if [ "${SKIP_NOPGO:-0}" = 1 ]; then
	runs_nopgo=""
else
	runs_nopgo=$(go test -run=NONE -bench='BenchmarkSimulatorThroughput$' \
		-benchmem -benchtime "$BENCHTIME_RUNS" -pgo=off . )
fi
# The engine microbenchmark compiles WITHOUT the profile: default.pgo
# is shaped by full simulations, whose enqueue mix differs from the
# synthetic 64-actor storm, and the misfit shows up as a few percent of
# noise in the one number meant to track the queue itself. PR6's
# baseline was also measured without PGO, so this keeps the comparison
# apples-to-apples.
events=$(go test -run=NONE -bench='BenchmarkEngineStep$' \
	-benchmem -benchtime "$BENCHTIME_EVENTS" -pgo=off . )
steps=$(go test -run=NONE -bench='BenchmarkStepThroughput' \
	-benchmem -benchtime "$BENCHTIME_STEPS" -pgo="$PGO" ./internal/sim )
sweeps=$(go test -run=NONE -bench='BenchmarkSweepSerial$' \
	-benchmem -benchtime "$BENCHTIME_SWEEPS" -pgo="$PGO" . )
micro=$(go test -run=NONE -bench='BenchmarkFlattenedLookup|BenchmarkTouchHit' \
	-benchmem -benchtime "$BENCHTIME_MICRO" -pgo="$PGO" \
	./internal/pagetable ./internal/osmm )
meta=$(go test -run=NONE -bench='BenchmarkFlattenedReferenceSweep' \
	-benchmem -benchtime 5x -pgo="$PGO" ./internal/pagetable )
printf '%s\n%s\n%s\n%s\n%s\n%s\n%s\n' \
	"$runs" "$runs_nopgo" "$events" "$steps" "$sweeps" "$micro" "$meta"

# Peak RSS of the reference sweep: one full ndpsim NDPage/bfs run,
# measured with GNU time when available, else getrusage(RUSAGE_CHILDREN)
# via python3 (ru_maxrss is KB on Linux). 0 when neither exists.
peak_rss=0
go build -o /tmp/ndpsim-bench ./cmd/ndpsim
sweep_cmd=(/tmp/ndpsim-bench -mech NDPage -workload bfs -instructions 300000)
if [ -x /usr/bin/time ]; then
	peak_rss=$(/usr/bin/time -v "${sweep_cmd[@]}" 2>&1 >/dev/null |
		awk '/Maximum resident set size/ { print $NF }' || echo 0)
elif command -v python3 >/dev/null; then
	peak_rss=$(python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
		"${sweep_cmd[@]}" || echo 0)
fi
peak_rss=${peak_rss:-0}
rm -f /tmp/ndpsim-bench

# metric BENCH_REGEX UNIT <<< output: value of the column whose unit
# label follows it on the matching benchmark line.
metric() {
	awk -v bench="$1" -v unit="$2" \
		'$1 ~ bench { for (i = 2; i < NF; i++) if ($(i+1) == unit) { print $i; exit } }'
}

sim_instr=$(metric '^BenchmarkSimulatorThroughput' 'sim-instr/s' <<<"$runs")
sim_allocs=$(metric '^BenchmarkSimulatorThroughput' 'allocs/op' <<<"$runs")
sims=$(metric '^BenchmarkRunSmall' 'sims/s' <<<"$runs")
sim_instr_nopgo=$(metric '^BenchmarkSimulatorThroughput' 'sim-instr/s' <<<"$runs_nopgo")
sim_instr_nopgo=${sim_instr_nopgo:-0}
evps=$(metric '^BenchmarkEngineStep' 'events/s' <<<"$events")
ev_allocs=$(metric '^BenchmarkEngineStep' 'allocs/op' <<<"$events")
step_ndpage_ns=$(metric '^BenchmarkStepThroughput/NDPage' 'ns/op' <<<"$steps")
step_ndpage_allocs=$(metric '^BenchmarkStepThroughput/NDPage' 'allocs/op' <<<"$steps")
step_cores=$(metric '^BenchmarkStepThroughput/NDPage' 'cores' <<<"$steps")
mlp_ns=$(metric '^BenchmarkStepThroughputMLP' 'ns/op' <<<"$steps")
mlp_allocs=$(metric '^BenchmarkStepThroughputMLP' 'allocs/op' <<<"$steps")
sweep_serial=$(metric '^BenchmarkSweepSerial' 'sweep-instr/s' <<<"$sweeps")
lookup_dense=$(metric '^BenchmarkFlattenedLookup/dense' 'ns/op' <<<"$micro")
lookup_sparse=$(metric '^BenchmarkFlattenedLookup/sparse' 'ns/op' <<<"$micro")
touch_cached=$(metric '^BenchmarkTouchHit/cached' 'ns/op' <<<"$micro")
touch_present=$(metric '^BenchmarkTouchHit/present' 'ns/op' <<<"$micro")
bytes_page=$(metric '^BenchmarkFlattenedReferenceSweep' 'bytes/page' <<<"$meta")

for v in sim_instr sim_allocs sims evps step_ndpage_allocs mlp_allocs \
	sweep_serial lookup_dense lookup_sparse \
	touch_cached touch_present bytes_page; do
	if [ -z "${!v}" ]; then
		echo "bench.sh: failed to parse $v from benchmark output" >&2
		exit 1
	fi
done

allocs_per_instr=$(awk -v a="$step_ndpage_allocs" -v c="${step_cores:-4}" \
	'BEGIN { printf "%.4f", a / c }')
cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
ns_per_dispatch=$(awk -v e="$evps" 'BEGIN { printf "%.1f", 1e9 / e }')
events_x=$(awk -v a="$evps" 'BEGIN { printf "%.2f", a / 20567381 }')
sim_instr_x=$(awk -v a="$sim_instr" 'BEGIN { printf "%.2f", a / 4747309 }')
pgo_x=$(awk -v a="$sim_instr" -v b="$sim_instr_nopgo" \
	'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')

# Provenance: the measured tree, with +dirty when it differs from HEAD
# (e.g. a pre-commit run — the numbers are NOT HEAD's).
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if ! git diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# The baseline block is the PR6 head measured with that PR's script at
# its default scales on the same reference machine (committed as
# BENCH_PR6.json), so the trajectory file always carries its own
# before/after comparison.
cat > "$OUT" <<EOF
{
  "benchmark": "PR7 bit-packed lazy page-table metadata + PGO",
  "commit": "$commit",
  "generated_utc": "$date",
  "go": "$(go env GOVERSION)",
  "cpus": $cpus,
  "current": {
    "sim_instr_per_s": $sim_instr,
    "sim_instr_per_s_nopgo": $sim_instr_nopgo,
    "sims_per_s": $sims,
    "events_per_s": $evps,
    "ns_per_dispatch": $ns_per_dispatch,
    "engine_event_allocs_per_op": ${ev_allocs:-0},
    "allocs_per_instr": $allocs_per_instr,
    "sim_throughput_allocs_per_op": $sim_allocs,
    "step_ndpage_ns_per_op": ${step_ndpage_ns:-0},
    "step_mlp_ns_per_op": ${mlp_ns:-0},
    "step_mlp_allocs_per_op": $mlp_allocs,
    "sweep_serial_instr_per_s": $sweep_serial,
    "lookup_dense_ns": $lookup_dense,
    "lookup_sparse_ns": $lookup_sparse,
    "touch_cached_ns": $touch_cached,
    "touch_present_ns": $touch_present,
    "bytes_per_mapped_page": $bytes_page,
    "peak_rss_kb": $peak_rss
  },
  "speedup_vs_pr6": {
    "events_per_s_x": $events_x,
    "sim_instr_per_s_x": $sim_instr_x,
    "pgo_speedup_x": $pgo_x
  },
  "baseline_pr6": {
    "commit": "93a6fb4+dirty",
    "sim_instr_per_s": 4747309,
    "sims_per_s": 54.10,
    "events_per_s": 20567381,
    "engine_event_allocs_per_op": 0,
    "allocs_per_instr": 0.0000,
    "sim_throughput_allocs_per_op": 761,
    "step_ndpage_ns_per_op": 1329,
    "step_mlp_ns_per_op": 1532,
    "step_mlp_allocs_per_op": 0,
    "sweep_serial_instr_per_s": 2796929
  },
  "gates": {
    "sim_throughput_allocs_per_op": $SIM_ALLOC_BUDGET,
    "step_allocs_per_op": $STEP_ALLOC_BUDGET,
    "events_speedup_floor": $EVENTS_SPEEDUP_FLOOR,
    "sim_instr_speedup_floor": $SIM_SPEEDUP_FLOOR,
    "meta_bytes_budget": $META_BYTES_BUDGET
  }
}
EOF
echo "wrote $OUT"

fail=0
check_budget() { # name actual budget
	if awk -v a="$2" -v b="$3" 'BEGIN { exit !(a > b) }'; then
		echo "bench.sh: BUDGET EXCEEDED: $1 = $2 (budget $3)" >&2
		fail=1
	fi
}
check_floor() { # name ratio floor
	if awk -v a="$2" -v b="$3" 'BEGIN { exit !(a < b) }'; then
		echo "bench.sh: FLOOR MISSED: $1 = ${2}x (floor ${3}x)" >&2
		fail=1
	fi
}
check_budget BenchmarkSimulatorThroughput "$sim_allocs" "$SIM_ALLOC_BUDGET"
while read -r name allocs; do
	[ -n "$allocs" ] && check_budget "$name" "$allocs" "$STEP_ALLOC_BUDGET"
done < <(awk '/^BenchmarkStepThroughput/ { for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $1, $i }' <<<"$steps")
while read -r name allocs; do
	[ -n "$allocs" ] && check_budget "$name (steady-state)" "$allocs" "$STEP_ALLOC_BUDGET"
done < <(awk '/^BenchmarkFlattenedLookup|^BenchmarkTouchHit/ { for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $1, $i }' <<<"$micro")
check_budget "bytes_per_mapped_page" "$bytes_page" "$META_BYTES_BUDGET"
check_floor "events/s vs PR6" "$events_x" "$EVENTS_SPEEDUP_FLOOR"
check_floor "sim-instr/s vs PR6" "$sim_instr_x" "$SIM_SPEEDUP_FLOOR"
exit $fail
