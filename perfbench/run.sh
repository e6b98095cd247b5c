#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload sweep|decode|check --seed N \
#     --seconds S --trace 0|1
#
# Run from the repository root.  The build goes to .bench_build (dune's
# shared cache off, so nothing is written outside the checkout); its log
# goes to standard error.  Exits non-zero without a result when the
# build fails, e.g. in a directory that lacks the library sources.
set -u
build_dir=.bench_build
if ! dune build --root . --build-dir "$build_dir" --cache=disabled \
     --profile release ./perfbench/bench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
PERFBENCH_NPROC=$(nproc 2>/dev/null || echo unknown)
export PERFBENCH_NPROC
exec "$build_dir/default/perfbench/bench.exe" "$@"
