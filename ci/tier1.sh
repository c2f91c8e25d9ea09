#!/usr/bin/env bash
# The tier-1 CI steps, one function each.
#
#   bash ci/tier1.sh <step>   run one step (the workflow calls each in turn)
#   bash ci/tier1.sh all      run every step but `install` on this checkout,
#                             with an `orliczkit` shim on PATH in place of
#                             the installed console script
#   bash ci/tier1.sh list     print the step names
#
# Steps write scratch files to $RUNNER_TEMP, or to a fresh temporary
# directory that is removed on exit when it is unset.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

STEPS=(install tests mutants work selftest verify_all verify_seeds
       verify_bytes verify_4096 script_matches_module script_exit_codes
       bench_workloads bench_traced)

if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

# Install with the test extra
install() {
  python -m pip install -e ".[test]"
}

# Tier-1 tests
tests() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q \
    -W error::ResourceWarning --continue-on-collection-errors --durations=15
}

# The tests catch the recorded source mutations (ci/mutants.py)
mutants() {
  python ci/mutants.py
}

# The work ledger: ci/work.py prints the counts in ci/work.json, the same
# bytes under two hash seeds; any difference fails and is printed
work() {
  local hs
  for hs in 1 2; do
    PYTHONHASHSEED=$hs PYTHONPATH=src python ci/work.py > "$RUNNER_TEMP/work-$hs.json"
    diff -u ci/work.json "$RUNNER_TEMP/work-$hs.json"
  done
}

# Benchmark self-test
selftest() {
  python3 bench/selftest.py
}

# verify-all battery
verify_all() {
  PYTHONPATH=src python -m orliczkit verify-all --seed 7
}

# verify-all passes at seeds 0-9; the rows draw their inputs from the seed
verify_seeds() {
  local seed
  for seed in 0 1 2 3 4 5 6 7 8 9; do
    PYTHONPATH=src python -m orliczkit verify-all --seed "$seed" > /dev/null \
      || { echo "verify-all fails at seed $seed"; return 1; }
  done
}

# verify-all prints the same bytes in two fresh processes: the determinism
# test compares two runs inside one process, and string hashing is
# randomized per process, so compare across processes too
verify_bytes() {
  local fmt hs
  for fmt in json csv; do
    for hs in 1 2; do
      PYTHONHASHSEED=$hs PYTHONPATH=src python -m orliczkit verify-all \
        --seed 7 --format "$fmt" > "$RUNNER_TEMP/verify-$hs.$fmt"
    done
    diff "$RUNNER_TEMP/verify-1.$fmt" "$RUNNER_TEMP/verify-2.$fmt"
  done
}

# verify-all at --truncation 4096 passes and prints the same bytes twice:
# the witnesses and the multi-block family readers at N = 4096, through the
# CLI; verify-all exits nonzero when a row fails
verify_4096() {
  local hs
  for hs in 1 2; do
    PYTHONHASHSEED=$hs PYTHONPATH=src python -m orliczkit verify-all \
      --seed 7 --truncation 4096 > "$RUNNER_TEMP/verify-4096-$hs.json"
  done
  diff "$RUNNER_TEMP/verify-4096-1.json" "$RUNNER_TEMP/verify-4096-2.json"
}

# The installed console script prints what python -m prints: the
# orliczkit.cli:run entry point that pip installs as `orliczkit`
script_matches_module() {
  local fmt
  orliczkit --help > /dev/null
  for fmt in json csv; do
    orliczkit verify-all --seed 7 --format "$fmt" > "$RUNNER_TEMP/script.$fmt"
    PYTHONPATH=src python -m orliczkit verify-all --seed 7 --format "$fmt" \
      > "$RUNNER_TEMP/module.$fmt"
    diff "$RUNNER_TEMP/script.$fmt" "$RUNNER_TEMP/module.$fmt"
  done
}

# The installed console script exits 2 on bad flag values
script_exit_codes() {
  local args code
  for args in "conjugate --orlicz power:p=2 --grid-max nan" \
              "verify-all --seed -1"; do
    code=0
    # word splitting of $args is intended
    orliczkit $args > /dev/null || code=$?
    [ "$code" -eq 2 ] || { echo "orliczkit $args exited $code, not 2"; return 1; }
  done
}

# Read the last line of a bench/run.py run, which exits 0 whatever its
# checks find, and fail unless it reports correct with 0 failed.
_bench_ok() {
  local label=$1 out=$2
  printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
print(sys.argv[1], "correct:", doc["correct"], "failed:", doc["failed"])
sys.exit(0 if doc["correct"] is True and doc["failed"] == 0 else 1)
' "$label"
}

# Benchmark workloads run and check their outputs
bench_workloads() {
  local w out
  for w in dual_certify truncated_diagnostics cli_session; do
    out=$(python3 bench/run.py --workload "$w" --seed 3 --seconds 2 --trace 0)
    _bench_ok "$w" "$out"
  done
}

# Traced benchmark workloads run and check their outputs: --trace 1 wraps
# the program's public functions (bench/spans.py), so a changed signature
# breaks this path and not the untraced one
bench_traced() {
  local w out
  for w in dual_certify truncated_diagnostics cli_session; do
    out=$(python3 bench/run.py --workload "$w" --seed 3 --seconds 1 --trace 1)
    _bench_ok "$w traced" "$out"
  done
}

# Every step but `install`, with a stand-in for the console script that
# calls the same entry point, orliczkit.cli:run, from this checkout.
all() {
  local shim="$RUNNER_TEMP/bin" step
  mkdir -p "$shim"
  cat > "$shim/orliczkit" <<EOF
#!/bin/sh
PYTHONPATH="$PWD/src\${PYTHONPATH:+:\$PYTHONPATH}" exec python -c \\
  'from orliczkit.cli import run; run()' "\$@"
EOF
  chmod +x "$shim/orliczkit"
  PATH="$shim:$PATH"
  for step in "${STEPS[@]}"; do
    [ "$step" = install ] && continue
    echo "== $step"
    "$step"
  done
  echo "== all steps passed"
}

list() {
  printf '%s\n' "${STEPS[@]}"
}

case "${1:-}" in
  all | list) "$1" ;;
  *)
    for step in "${STEPS[@]}"; do
      if [ "${1:-}" = "$step" ]; then
        "$step"
        exit
      fi
    done
    echo "usage: bash ci/tier1.sh <step | all | list>; steps: ${STEPS[*]}" >&2
    exit 2
    ;;
esac
