#!/usr/bin/env python3
"""Every heus-lint JSON document parses with a real JSON parser.

Runs each heus-lint subcommand with --format=json and loads its stdout
with Python's json module (NaN/Infinity rejected), then checks the
document's top-level keys and their order. Exits 1 on any failure.

Usage: lint_json_test.py <path-to-heus-lint> <path-to-examples/site>
"""

import json
import subprocess
import sys

CENSUS = ["policy", "facts", "channels", "summary"]
PATHS = ["principal", "clusters", "nodes", "edges", "edges_present",
         "escalation_paths", "residual_paths", "minimal_cut", "sweep",
         "mutations", "knob_lint", "gate_ok"]


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def main():
    lint, site = sys.argv[1], sys.argv[2]
    cases = [
        (["--policy=baseline"], CENSUS),
        (["--policy=hardened"], CENSUS),
        (["--policy=hardened", "--degraded"],
         ["policy", "channels", "federation"]),
        (["--policy=hardened", "--trace"], ["policy", "decisions"]),
        (["--site=" + site],
         ["snapshot", "intent", "site_diagnostics", "drift", "nodes",
          "gate"]),
        (["--reach"], ["policies", "clean", "machines", "findings"]),
        (["--policy=baseline", "--paths"], PATHS),
        (["--policy=hardened", "--paths"], PATHS),
    ]
    failures = 0
    for args, keys in cases:
        label = "heus-lint " + " ".join(args) + " --format=json"
        proc = subprocess.run([lint, *args, "--format=json"],
                              capture_output=True, text=True, check=False)
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr}")
            doc = json.loads(proc.stdout, parse_constant=reject_constant)
            if not isinstance(doc, dict) or list(doc) != keys:
                raise ValueError(f"top-level keys {list(doc)}, want {keys}")
        except ValueError as e:  # json.JSONDecodeError is a ValueError
            print(f"FAIL: {label}: {e}")
            failures += 1
            continue
        print(f"ok: {label} ({len(proc.stdout)} bytes)")
    if failures:
        print(f"{failures} heus-lint JSON document(s) failed")
        return 1
    print("all heus-lint JSON documents parse")
    return 0


if __name__ == "__main__":
    sys.exit(main())
