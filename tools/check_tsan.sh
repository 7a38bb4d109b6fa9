#!/usr/bin/env bash
# Build the concurrency-sensitive test binaries with ThreadSanitizer
# and run the scheduler / queue / executor test subset under it.
#
# The subset is defined by the `tsan` test preset in CMakePresets.json:
# it covers the out-of-order queue scheduler, the thread pool, the
# thread-safe launch log, the memory pool, the fault layer and its
# chaos schedules, loop chains, OP2 locality and ownership sweeps and
# the Apps/Determinism matrix, including the OPS SyclNd cases (a
# barrier-free nd_range work-group runs on its worker's own stack,
# with no fiber). It excludes every test whose name contains
# "NdRange" - the miniSYCL barrier unit tests and the OP2 hierarchical
# Apps/Determinism cases: their barrier groups switch stacks with
# swapcontext, which TSan cannot follow, and they run under the `asan`
# preset instead - see docs/executor.md.
#
# Usage: tools/check_tsan.sh  (from the repository root)

set -euo pipefail
cd "$(dirname "$0")/.."

cmake --workflow --preset tsan
echo "TSan concurrency suite passed."
