#!/usr/bin/env bash
# Build the benchmark from source in this checkout and run it.
#
#   bash perfbench/run.sh --workload apps|translate|validate \
#     --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The build goes to _build/ with dune's
# shared cache off and temporary files under .perfbench-out/, so nothing
# is written outside the checkout; build output goes to standard error,
# and the last line of standard output is the result as one JSON object.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f BENCHMARK.json ]; then
  echo "perfbench: run from the root of a full checkout" \
       "(dune-project, lib/ and BENCHMARK.json are needed)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

export DUNE_CACHE=disabled
mkdir -p .perfbench-out/tmp
export TMPDIR="$PWD/.perfbench-out/tmp"
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --git-commit "$commit" "$@"
