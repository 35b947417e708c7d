#!/usr/bin/env bash
# bench-delta.sh — print a benchstat-style old/new/delta table comparing
# a BENCH_PR7.json trajectory point against the PR6 baseline embedded in
# the same file. CI runs this after bench.sh so the job log carries the
# comparison next to the artifact.
#
# Usage: scripts/bench-delta.sh [BENCH_PR7.json]
set -euo pipefail
cd "$(dirname "$0")/.."

FILE="${1:-BENCH_PR7.json}"
python3 - "$FILE" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
cur, base = doc["current"], doc["baseline_pr6"]

# metric key -> (label, higher_is_better)
rows = [
    ("sim_instr_per_s", "sim-instr/s", True),
    ("sims_per_s", "sims/s", True),
    ("events_per_s", "events/s", True),
    ("sim_throughput_allocs_per_op", "sim allocs/op", False),
    ("step_ndpage_ns_per_op", "step ns/op (NDPage)", False),
    ("step_mlp_ns_per_op", "step ns/op (MLP)", False),
    ("sweep_serial_instr_per_s", "sweep serial instr/s", True),
]

print(f"{'metric':<24} {'PR6 base':>14} {'PR7':>14} {'delta':>9}")
print("-" * 64)
for key, label, up in rows:
    if key not in cur or key not in base:
        continue
    old, new = float(base[key]), float(cur[key])
    if old == 0:
        delta = "n/a"
    else:
        pct = (new - old) / old * 100
        better = pct > 0 if up else pct < 0
        mark = "+" if pct >= 0 else ""
        delta = f"{mark}{pct:.1f}%" + ("" if better or abs(pct) < 0.05 else " !")
    print(f"{label:<24} {old:>14,.0f} {new:>14,.0f} {delta:>9}")

extra = [
    ("sim_instr_per_s_nopgo", "sim-instr/s (PGO off)"),
    ("lookup_dense_ns", "Flattened lookup dense ns"),
    ("lookup_sparse_ns", "Flattened lookup sparse ns"),
    ("touch_cached_ns", "Touch hit cached ns"),
    ("touch_present_ns", "Touch hit Present ns"),
    ("bytes_per_mapped_page", "metadata bytes/page"),
    ("peak_rss_kb", "peak RSS (KB)"),
]
print()
print("PR7-only metrics (no PR6 counterpart):")
for key, label in extra:
    if key in cur:
        print(f"  {label:<28} {float(cur[key]):>14,.1f}")

sp = doc.get("speedup_vs_pr6", {})
if sp:
    print()
    print("speedup vs PR6: " + ", ".join(f"{k}={v}" for k, v in sp.items()))
EOF
