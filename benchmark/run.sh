#!/usr/bin/env bash
# Builds the benchmark from source, then runs it from the repository root:
#   bash benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
# All arguments pass through to `tashbench run` (see README.md). Build output
# goes to stderr, so the last line on stdout is the run's JSON summary.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build artefact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet benchmark/tashbench.exe 1>&2
exec ./_build/default/benchmark/tashbench.exe run "$@"
