#!/usr/bin/env python3
"""The leakage audit's decision trace matches its golden files.

Runs `heus-lint --policy=<p> --trace --format=<f>` for the hardened and
baseline policies in markdown and JSON, and compares stdout byte for
byte with tests/golden/trace_<p>.<md|json>. The trace prints every
Decision of one LeakageAuditor::audit_pair (pids, job ids, object names,
simulated times), so it pins the audit's exact sequence of calls.
Exits 1 on any mismatch.

To regenerate after an intentional change to the audit or the trace:
  HEUS_UPDATE_GOLDEN=1 python3 tests/tools/lint_trace_golden_test.py \
      ./build/src/tools/heus-lint tests/golden
and review the diff like any other code change.

Usage: lint_trace_golden_test.py <path-to-heus-lint> <path-to-tests/golden>
"""

import difflib
import os
import subprocess
import sys

CASES = [
    ("hardened", "markdown", "md"),
    ("hardened", "json", "json"),
    ("baseline", "markdown", "md"),
    ("baseline", "json", "json"),
]


def main():
    lint, golden_dir = sys.argv[1], sys.argv[2]
    update = os.environ.get("HEUS_UPDATE_GOLDEN") is not None
    failures = 0
    for policy, fmt, ext in CASES:
        args = [f"--policy={policy}", "--trace", f"--format={fmt}"]
        label = "heus-lint " + " ".join(args)
        path = os.path.join(golden_dir, f"trace_{policy}.{ext}")
        proc = subprocess.run([lint, *args], capture_output=True,
                              text=True, check=False)
        if proc.returncode != 0:
            print(f"FAIL: {label}: exit {proc.returncode}: {proc.stderr}")
            failures += 1
            continue
        if update:
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(proc.stdout)
            print(f"updated: {path}")
            continue
        try:
            with open(path, encoding="utf-8", newline="") as f:
                want = f.read()
        except OSError as e:
            print(f"FAIL: {label}: missing golden file: {e}")
            failures += 1
            continue
        if proc.stdout != want:
            diff = difflib.unified_diff(
                want.splitlines(keepends=True),
                proc.stdout.splitlines(keepends=True),
                fromfile=path, tofile=label, n=1)
            print(f"FAIL: {label} differs from {path}:")
            sys.stdout.writelines(list(diff)[:40])
            failures += 1
            continue
        print(f"ok: {label} ({len(want)} bytes)")
    if failures:
        print(f"{failures} trace output(s) differ from their golden files")
        return 1
    print("all trace outputs match their golden files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
