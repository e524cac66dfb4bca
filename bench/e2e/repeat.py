#!/usr/bin/env python3
"""Repeat heus_e2e runs and report the spread of every metric.

    python3 bench/e2e/repeat.py [--runs 5] [--sets 1] [--seed0 1]
                                [--workloads a,b] [--trace] [--smoke]

Each round runs every workload once through run.py, alternating the
workload order between rounds; round r of set s uses seed
seed0 + s * runs + r. For every metric of every set it prints the median,
the quartiles (statistics.quantiles, n=4) and the quartile and max-min
spreads as shares of the median; with --sets 2 or more it also prints how
far each later set's median lies from the first set's. It exits 1 when

  - a run fails or reports correct=false or failed > 0,
  - an emitted metric name or unit differs from BENCHMARK.json (either
    direction: missing, extra or renamed),
  - an end-to-end metric's quartile spread (q3 - q1 over the median) within
    a set exceeds its bound; setup_s is exempt, its spread is printed only,
  - a later set's median is worse than the first set's by more than the
    bound, in the metric's "better" direction (setup_s included).

--smoke runs the reduced sizes, which exercises the schema check quickly;
spreads at those sizes mean nothing, so they are printed but not checked.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def run_once(workload, seed, seconds, trace, smoke):
    cmd = [sys.executable, str(ROOT / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def share(a, b):
    return a / abs(b) * 100 if b else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    bounds = {m["name"]: m.get("bound") for m in declared}
    higher = {m["name"]: m["better"] == "higher" for m in declared}
    check = not args.smoke

    ok = True
    # values[s][w][metric] -> one value per run of set s
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else list(reversed(workloads))
            seed = args.seed0 + s * args.runs + r
            for w in order:
                code, result = run_once(w, seed, spec["run_seconds"], args.trace,
                                        args.smoke)
                if code != 0 or result is None:
                    print(f"FAIL {w} seed {seed}: exit {code}")
                    ok = False
                    continue
                if not result["correct"] or result["failed"] != 0:
                    print(f"FAIL {w} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}")
                    ok = False
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                if emitted != units:
                    missing = sorted(set(units) - set(emitted))
                    extra = sorted(set(emitted) - set(units))
                    wrong = sorted(k for k in set(units) & set(emitted)
                                   if units[k] != emitted[k])
                    print(f"FAIL {w} seed {seed}: schema mismatch "
                          f"missing={missing} extra={extra} unit={wrong}")
                    ok = False
                for k, v in result["metrics"].items():
                    values[s][w].setdefault(k, []).append(v["value"])

    for w in workloads:
        for s in range(args.sets):
            seeds = args.seed0 + s * args.runs
            print(f"\n{w} set {s + 1} ({args.runs} runs, seeds {seeds}.."
                  f"{seeds + args.runs - 1})")
            print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'iqr%':>7} {'range%':>7} {'vs1%':>7} {'bound%':>7}")
            for name in units:
                vals = values[s][w].get(name)
                if not vals:
                    continue
                med = statistics.median(vals)
                q1, q3 = quartiles(vals)
                rng = share(max(vals) - min(vals), med)
                iqr = share(q3 - q1, med)
                bound = bounds.get(name)
                flags = []
                if (bound is not None and check and name != "setup_s" and
                        iqr > bound * 100):
                    flags.append("SPREAD")
                vs1 = ""
                first = values[0][w].get(name)
                if s > 0 and first:
                    base = statistics.median(first)
                    diff = share(med - base, base)
                    vs1 = f"{diff:+7.2f}"
                    worse = -diff if higher[name] else diff
                    if bound is not None and check and worse > bound * 100:
                        flags.append("SHIFT")
                ok = ok and not flags
                bound_s = f"{bound * 100:.1f}" if bound is not None else "-"
                print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{iqr:7.2f} {rng:7.2f} {vs1:>7} "
                      f"{bound_s:>7}{'  ' + ' '.join(flags) if flags else ''}")
    print("\nOK" if ok else "\nFAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
