#!/usr/bin/env bash
# Run the repro test suite from ANY working directory.
#
# The seed shipped with `PYTHONPATH=src` — a relative path that stops
# resolving the moment a test (or a user) runs from a different cwd.
# This script pins PYTHONPATH to the repo's absolute src/ directory and
# passes pytest absolute paths, so it behaves identically from the repo
# root, from /tmp, or from CI's checkout directory.
#
# Usage:
#   scripts/check.sh                 # full tier-1 suite
#   scripts/check.sh --bench         # tier-1 suite + benchmarks/ suite
#   scripts/check.sh --gate          # suite, then record + regression gate
#   scripts/check.sh --smoke         # boot `repro serve` on an ephemeral
#                                    # port, hit /health, shut down clean
#   scripts/check.sh --stress N      # run the concurrency suites N times,
#                                    # stop at the first failing round
#   scripts/check.sh tests/test_x.py # any pytest selection (repo-relative
#                                    # or absolute paths both work)
#
# --bench appends the benchmarks/ suite (timing assertions and the
# telemetry no-op-overhead guard) to whatever selection runs; each
# benchmark module's timings are aggregated into output/BENCH_<name>.json
# (see benchmarks/conftest.py), usable as `repro runs compare --bench`
# baselines.
#
# --gate runs the selected suite, records a study run into the ledger at
# output/runs/ (`repro replicate --record`), then compares it against the
# previous ledger entries (`repro runs compare`) and exits with the
# watchdog's verdict: 0 = clean, 3 = result drift, 4 = confirmed perf
# regression.  The first recorded run has nothing to compare against and
# gates clean.
#
# --stress N repeats a selection N times and exits with pytest's status
# at the first failing round, to shake out flaky races.  Without a
# selection it repeats tests/test_serve.py: the serve stack plus the
# SingleFlight, ArtifactCache and RunRegistry race tests.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"

RUN_BENCH=0
RUN_GATE=0
RUN_SMOKE=0
STRESS_ROUNDS=0
while :; do
    case "${1:-}" in
        --bench) RUN_BENCH=1; shift ;;
        --gate)  RUN_GATE=1; shift ;;
        --smoke) RUN_SMOKE=1; shift ;;
        --stress)
            if [ "$#" -lt 2 ] || ! [[ "$2" =~ ^[1-9][0-9]*$ ]]; then
                echo "check.sh: --stress needs a positive round count" >&2
                exit 2
            fi
            STRESS_ROUNDS="$2"; shift 2 ;;
        *) break ;;
    esac
done

if [ "${RUN_SMOKE}" -eq 1 ]; then
    # Serve smoke test: boot the HTTP service on an ephemeral port in-
    # process, hit /health, and shut down gracefully. Exercises the real
    # socket path (worker pool, keep-alive, graceful close) end to end.
    python - <<'SMOKE'
import json
import sys
import urllib.request

from repro.serve import ServerHandle, build_context

ctx = build_context(job_workers=1, queue_size=2)
with ServerHandle(ctx, workers=4) as handle:
    with urllib.request.urlopen(handle.url + "/health", timeout=10) as r:
        payload = json.loads(r.read())
assert payload["status"] == "ok", payload
print(f"serve smoke: /health ok on {handle.url}, graceful shutdown clean")
sys.exit(0)
SMOKE
    exit 0
fi

if [ "$#" -eq 0 ] && [ "${STRESS_ROUNDS}" -gt 0 ]; then
    set -- "${REPO_ROOT}/tests/test_serve.py"
elif [ "$#" -eq 0 ]; then
    set -- "${REPO_ROOT}/tests"
else
    # Resolve repo-relative selections (tests/test_x.py[::node]) so they
    # work regardless of the caller's cwd.
    args=()
    for arg in "$@"; do
        file="${arg%%::*}"
        if [ "${arg#-}" = "${arg}" ] && [ ! -e "${file}" ] \
            && [ -e "${REPO_ROOT}/${file}" ]; then
            arg="${REPO_ROOT}/${arg}"
        fi
        args+=("${arg}")
    done
    set -- "${args[@]}"
fi

if [ "${STRESS_ROUNDS}" -gt 0 ]; then
    for round in $(seq 1 "${STRESS_ROUNDS}"); do
        echo "stress round ${round}/${STRESS_ROUNDS}"
        status=0
        python -m pytest "$@" --rootdir="${REPO_ROOT}" -q || status=$?
        if [ "${status}" -ne 0 ]; then
            echo "stress: round ${round}/${STRESS_ROUNDS} failed" >&2
            exit "${status}"
        fi
    done
    echo "stress: ${STRESS_ROUNDS} round(s) passed"
    exit 0
fi

if [ "${RUN_BENCH}" -eq 1 ]; then
    set -- "$@" "${REPO_ROOT}/benchmarks"
fi

if [ "${RUN_GATE}" -eq 0 ]; then
    exec python -m pytest "$@" --rootdir="${REPO_ROOT}" -q
fi

python -m pytest "$@" --rootdir="${REPO_ROOT}" -q

RUNS_DIR="${REPRO_RUNS_DIR:-${REPO_ROOT}/output/runs}"
python -m repro replicate --record --runs-dir "${RUNS_DIR}" >/dev/null

# Exit with the watchdog verdict (0 clean, 3 drift, 4 perf regression).
# With a single recorded run there is nothing to compare; that exits 0.
set +e
python -m repro runs compare --runs-dir "${RUNS_DIR}"
verdict=$?
set -e
exit "${verdict}"
