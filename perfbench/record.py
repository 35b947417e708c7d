#!/usr/bin/env python3
"""Measures every workload over several seeds and appends one point to
perfbench/trajectory.json.

Run from the repository root:

    python3 perfbench/record.py --seeds 10 --note "what changed"

For each workload it runs `bash perfbench/run.sh` once per seed with
tracing off (the end-to-end metrics) and once with tracing on (the
per-layer metrics, first seed only). The point records the host (CPU
model, CPUs, GOMAXPROCS, Go version), the commit, and each end-to-end
metric's median, quartiles and spread: the distance between the
quartiles as a share of the median. A spread above a third of the
metric's bound in BENCHMARK.json is flagged, because such a metric is
too noisy on this host to resolve a change of that size. Compare
points only when they name the same host.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    host = next((l.split(None, 1)[1] for l in lines if l.startswith("host ")), "")
    return json.loads(lines[-1]), host


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds per workload (1..N)")
    ap.add_argument("--note", default="", help="what this point measures")
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench", "trajectory.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    point = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "note": args.note,
        # "benchmark" is the run's own host line: Go version, platform,
        # GOMAXPROCS and sweep workers.
        "host": {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)), "benchmark": ""},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    flagged = []
    for w in names:
        values = {}
        for s in seeds:
            r, host = bench(w, s, spec["run_seconds"], 0)
            point["host"]["benchmark"] = host
            if not r["correct"] or r["failed"]:
                sys.exit(f"{w} seed {s}: correct={r['correct']} failed={r['failed']}")
            for k, m in r["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{w} seed {s}: " + ", ".join(f"{k}={m['value']:.4g}" for k, m in sorted(r["metrics"].items())),
                  flush=True)
        e2e = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med
            e2e[m["name"]] = {"unit": m["unit"], "median": med, "q1": q[0], "q3": q[2],
                              "spread": spread, "values": v}
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flagged.append(f"{w} {m['name']}: spread {spread:.3f} > bound/3 {m['bound'] / 3:.3f}")
        traced, _ = bench(w, seeds[0], spec["run_seconds"], 1)
        point["workloads"][w] = {
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in sorted(traced["metrics"].items())},
        }
    try:
        with open(args.out) as f:
            points = json.load(f)
    except FileNotFoundError:
        points = []
    points.append(point)
    with open(args.out, "w") as f:
        json.dump(points, f, indent=1)
        f.write("\n")
    for line in flagged:
        print("NOISY:", line)
    print(f"appended a point to {args.out}")


if __name__ == "__main__":
    main()
