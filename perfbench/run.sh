#!/usr/bin/env bash
# Benchmark entry point, run from the root of an OREGAMI checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the oregami CLI and the benchmark from source (dune, shared
# cache off so nothing is written outside the checkout), then runs one
# measurement.  Build output goes to stderr; the last line of stdout is
# the JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "perfbench: run from the root of an OREGAMI checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

dune build --root . --cache=disabled ./bin/main.exe ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe --oregami ./_build/default/bin/main.exe --out perfbench/_out "$@"
