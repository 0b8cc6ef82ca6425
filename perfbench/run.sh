#!/bin/sh
# Builds the benchmark from the checkout's sources, then runs one
# workload.  Run from the repository root:
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 25 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full source checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
# Every workload runs on one CPU, the first this process may use.  On
# a 2-vCPU VM the other CPU comes and goes with the neighbours' load:
# unpinned, execute's pass time (its indexed engine runs on
# Domain.recommended_domain_count domains, 1 when pinned) swung by a
# fifth between runs, and cross-CPU wake-ups swung serve's latencies
# 1.6x.
cpu=$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//; s/[,-].*//')
if [ -n "$cpu" ]; then
  exec taskset -c "$cpu" ./_build/default/perfbench/main.exe "$@"
fi
echo "perfbench: taskset unavailable, running unpinned" >&2
exec ./_build/default/perfbench/main.exe "$@"
