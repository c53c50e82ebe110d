#!/usr/bin/env bash
# Build the benchmark from source and run it.  Run from the repository
# root; every argument is passed to the benchmark (see main.ml).
#
#   bash perfbench/run.sh --workload warm-cv --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --self-check
#
# Everything the run writes stays under .perfbench_work/ and _build/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi

work="$PWD/.perfbench_work"
mkdir -p "$work/tmp"
# Temporary files of the build, the JIT and the C compiler stay in the
# checkout, and dune's shared cache is off.
export TMPDIR="$work/tmp"
export DUNE_CACHE=disabled
export PERFBENCH_WORK="$work"

dune build --root . --profile release ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
