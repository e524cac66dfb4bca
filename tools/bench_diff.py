#!/usr/bin/env python3
"""Perf-ratchet gate: diff a fresh BENCH_E*.json against its committed
baseline and fail on >10% regression of any tracked metric.

The E-series benchmarks are deterministic simulations: their tracked
metrics are simulated-work counters (entries touched, allocations, cache
hits, simulated nanoseconds), not wall-clock measurements, so they are
machine-independent and a regression is a real behaviour change, not
noise. Wall-clock keys (``*_ms``, ``*_wall*``) are reported for human
curiosity and explicitly ignored here.

Direction is inferred from the key name:

- higher-is-better: speedups (``*_x``, ``*speedup*``), rates
  (``*hit_rate*``, ``*throughput*``), reductions (``*reduction*``);
- lower-is-better: work/cost counters (``*allocs*``, ``*touched*``,
  ``*examined*``, ``*_cost*``, ``*misses*``, ``*_bytes*``);
- anything else is pinned: it must stay within the threshold in *both*
  directions, because deterministic counters that drift silently are how
  perf regressions hide.

Tolerance is per metric:

- keys whose leaf starts with ``alloc_`` are the allocation-discipline
  class (E21/E26): gated at 0% regression.  The zero-alloc hot paths are a
  hard invariant, not a soft budget — one new allocation per op is how the
  discipline erodes;
- ``--override GLOB=TOL`` (repeatable) sets an explicit tolerance for any
  metric whose flattened key (or bare leaf) matches the glob, taking
  precedence over both the default threshold and the alloc_ class;
- everything else uses ``--threshold`` (default 0.10).

Usage: bench_diff.py BASELINE.json FRESH.json [--threshold 0.10]
                     [--override GLOB=TOL]...
Exit 1 when any metric regresses.
"""

import argparse
import fnmatch
import json
import sys

IGNORED_SUBSTRINGS = ("_ms", "wall", "smoke")
HIGHER_BETTER = ("_x", "speedup", "hit_rate", "throughput", "reduction")
LOWER_BETTER = ("allocs", "touched", "examined", "_cost", "misses", "_bytes")
# Leaf prefix marking the allocation-discipline metric class: no
# regression tolerated at all (tolerance 0.0 unless overridden).
ZERO_TOLERANCE_PREFIX = "alloc_"

# Keys used to label entries when flattening a list of result objects, so
# rows are matched by what they measure rather than by list position.
LABEL_KEYS = ("policy", "label", "name", "mode", "workload", "case", "path",
              "point")


def flatten(value, prefix, out):
    if isinstance(value, dict):
        for key, child in value.items():
            flatten(child, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for index, child in enumerate(value):
            tag = str(index)
            if isinstance(child, dict):
                for label_key in LABEL_KEYS:
                    if isinstance(child.get(label_key), str):
                        tag = child[label_key]
                        break
            flatten(child, f"{prefix}[{tag}]", out)
    elif isinstance(value, bool) or value is None or isinstance(value, str):
        pass  # only numeric leaves are tracked metrics
    else:
        out[prefix] = float(value)


def leaf_of(key):
    # The leaf is the last dotted component (list tags like "[policy]" stay
    # attached to their parent component, so strip any "...]" prefix too).
    leaf = key.rsplit(".", 1)[-1]
    return leaf.rsplit("]", 1)[-1].lstrip(".").lower() or leaf.lower()


def direction(key):
    leaf = leaf_of(key)
    if any(s in leaf for s in IGNORED_SUBSTRINGS):
        return "ignored"
    if leaf.startswith(ZERO_TOLERANCE_PREFIX):
        return "lower"
    if any(leaf.endswith(s) or s in leaf for s in HIGHER_BETTER):
        return "higher"
    if any(leaf.endswith(s) or s in leaf for s in LOWER_BETTER):
        return "lower"
    return "pinned"


def parse_overrides(specs):
    overrides = []
    for spec in specs:
        glob, sep, tol = spec.partition("=")
        if not sep or not glob:
            raise SystemExit(f"bad --override {spec!r}: expected GLOB=TOL")
        try:
            value = float(tol)
        except ValueError:
            raise SystemExit(f"bad --override {spec!r}: {tol!r} is not a "
                             "number") from None
        if value < 0:
            raise SystemExit(f"bad --override {spec!r}: tolerance must be "
                             ">= 0")
        overrides.append((glob, value))
    return overrides


def tolerance_for(key, default, overrides):
    """Per-metric tolerance: explicit --override globs win (last match),
    then the alloc_ zero-tolerance class, then the default threshold."""
    leaf = leaf_of(key)
    tol = None
    for glob, value in overrides:
        if fnmatch.fnmatch(key, glob) or fnmatch.fnmatch(leaf, glob):
            tol = value
    if tol is not None:
        return tol
    if leaf.startswith(ZERO_TOLERANCE_PREFIX):
        return 0.0
    return default


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression tolerance (default 0.10)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="GLOB=TOL",
                        help="per-metric tolerance for keys matching GLOB "
                             "(fnmatch against the flattened key or its "
                             "leaf); repeatable, last match wins")
    args = parser.parse_args()
    overrides = parse_overrides(args.override)

    with open(args.baseline) as f:
        base_doc = json.load(f)
    with open(args.fresh) as f:
        fresh_doc = json.load(f)

    base, fresh = {}, {}
    flatten(base_doc, "", base)
    flatten(fresh_doc, "", fresh)

    failures = []
    compared = 0
    for key, base_value in sorted(base.items()):
        kind = direction(key)
        if kind == "ignored":
            continue
        if key not in fresh:
            failures.append(f"{key}: missing from fresh run "
                            f"(baseline {base_value:g})")
            continue
        fresh_value = fresh[key]
        compared += 1
        tol = tolerance_for(key, args.threshold, overrides)
        # Counters near zero get an absolute floor of 1.0 so 0 -> 1 style
        # jitter in tiny metrics does not read as an infinite regression.
        denom = max(abs(base_value), 1.0)
        change = (fresh_value - base_value) / denom
        regressed = (
            (kind == "higher" and change < -tol)
            or (kind == "lower" and change > tol)
            or (kind == "pinned" and abs(change) > tol)
        )
        if regressed:
            failures.append(
                f"{key} [{kind}, tol {tol:.0%}]: baseline {base_value:g} -> "
                f"fresh {fresh_value:g} ({change:+.1%})")

    for key in sorted(set(fresh) - set(base)):
        if direction(key) != "ignored":
            print(f"note: new metric not in baseline: {key} = "
                  f"{fresh[key]:g} (update the baseline to ratchet it)")

    if failures:
        print(f"PERF RATCHET FAILED ({args.baseline}): "
              f"{len(failures)} regressed metric(s)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"perf ratchet OK ({args.baseline}): {compared} metrics within "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
