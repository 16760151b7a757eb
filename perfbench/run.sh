#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result JSON.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ]; then
  echo "perfbench: not at the root of a source checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
