#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout of the repository. Build output goes to
# stderr; the benchmark's report goes to stdout and ends with one JSON line.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    eval "$(opam env 2>/dev/null)" || true
  fi
fi

# Build inside the checkout only: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
