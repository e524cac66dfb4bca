#!/usr/bin/env sh
# heus-lint CLI error paths: every bad invocation must exit 2 with a
# diagnostic on stderr (and usage where promised), and must print
# nothing on stdout — a gate script pipes stdout, so errors may not
# leak there.
#
# Usage: lint_cli_test.sh <path-to-heus-lint> <path-to-examples/site>
set -u

lint="$1"
site="$2"
failures=0

# check <exit-code> <stderr-substring> <args...>
check() {
  want_code="$1"; want_stderr="$2"; shift 2
  stdout_file="lint_cli_out.$$"
  stderr_file="lint_cli_err.$$"
  "$lint" "$@" >"$stdout_file" 2>"$stderr_file"
  code=$?
  ok=1
  [ "$code" -eq "$want_code" ] || ok=0
  grep -q -e "$want_stderr" "$stderr_file" || ok=0
  [ -s "$stdout_file" ] && ok=0
  if [ "$ok" -ne 1 ]; then
    echo "FAIL: heus-lint $* => exit $code (want $want_code)," \
         "stderr must mention '$want_stderr', stdout must be empty"
    sed 's/^/  stderr: /' "$stderr_file"
    failures=$((failures + 1))
  else
    echo "ok: heus-lint $* => exit $code"
  fi
  rm -f "$stdout_file" "$stderr_file"
}

check 2 "bad --set" --set=frobnicate=1
check 2 "bad --set" --set=ubf=perhaps
check 2 "bad --set" --set=ubf            # no '=' in the override
check 2 "bad --port" --port=70000
check 2 "bad --port" --port=12x
check 2 "unknown policy" --policy=extreme
check 2 "unknown format" --format=yaml
check 2 "unknown option" --frobnicate
check 2 "usage:" --frobnicate            # unknown flag prints usage
check 2 "--site needs a directory" --site=
check 2 "not a readable directory" --site=/nonexistent/site/dir
check 2 "does not combine" --reach --site="$site"
check 2 "does not combine" --reach --trace
check 2 "does not combine" --paths --site="$site"
check 2 "does not combine" --paths --trace
check 2 "does not combine" --trace --site="$site"
# One subcommand per run: a second one is refused, never dropped.
check 2 "does not combine" --policy=baseline --reach --paths --gate
check 2 "does not combine" --degraded --reach
check 2 "does not combine" --degraded --paths
check 2 "does not combine" --degraded --trace
check 2 "does not combine" --degraded --site="$site"
# --trace and --degraded have no gate; --gate with them is refused.
check 2 "does not combine" --policy=baseline --degraded --gate
check 2 "does not combine" --policy=baseline --trace --gate

# A failed --json write must reach the exit code, even for a document
# smaller than the stdio buffer. stdout still carries the markdown
# report, so this case cannot use check().
if [ -w /dev/full ]; then
  stderr_file="lint_cli_err.$$"
  "$lint" --reach --json=/dev/full >/dev/null 2>"$stderr_file"
  code=$?
  if [ "$code" -eq 2 ] && grep -q "cannot write" "$stderr_file"; then
    echo "ok: heus-lint --reach --json=/dev/full => exit $code"
  else
    echo "FAIL: heus-lint --reach --json=/dev/full => exit $code" \
         "(want 2 with 'cannot write' on stderr)"
    failures=$((failures + 1))
  fi
  rm -f "$stderr_file"
fi

# Sanity: the good paths still work and obey exit-code conventions.
"$lint" --policy=hardened --gate >/dev/null 2>&1 || {
  echo "FAIL: hardened policy must pass the gate"; failures=$((failures + 1));
}
"$lint" --site="$site" --gate >/dev/null 2>&1 || {
  echo "FAIL: example site must pass the gate"; failures=$((failures + 1));
}
"$lint" --reach --gate >/dev/null 2>&1 || {
  echo "FAIL: shipped lifecycle tables must pass the reach gate"
  failures=$((failures + 1))
}
"$lint" --policy=baseline --gate >/dev/null 2>&1
code=$?
if [ "$code" -ne 1 ]; then
  echo "FAIL: baseline --gate must exit 1, got $code"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI error-path check(s) failed"
  exit 1
fi
echo "all CLI error-path checks passed"
