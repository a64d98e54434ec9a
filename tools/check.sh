#!/usr/bin/env bash
# Checks documentation links and flag/schema doc drift, then runs the
# tier-1 test suite under sanitizers. Usage:
#
#   tools/check.sh [sanitizer...]
#
# With no arguments, runs address and undefined over the full suite, then
# thread over the concurrency-bearing subsystems: the serving tests
# (concurrent hot-swap, sharded caching, multi-threaded pipeline), the
# MapReduce engine tests, the plan-scheduler and concurrent-Run
# stress tests, the cost-model and cluster-config validation suites (the
# cost model is consulted from worker threads via stats export), the
# sort-merge order-contract and
# layout-independence suites (threaded reduce partitions at several
# thread counts), and the failure-injection suite
# (map-task retries and failed-job cleanup on pool threads). TSan over
# the whole suite roughly 10x-es the run for code that is single-threaded
# by construction. Each sanitizer
# gets its own build tree (build-<sanitizer>) so the instrumented objects
# never mix with the normal build. Benchmarks and examples are skipped —
# the tests are what the sanitizers need to see.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== docs: checking markdown links ==="
tools/check_links.sh
echo "=== docs: checking flag/schema drift ==="
tools/check_docs.sh

sanitizers=("$@")
if [[ ${#sanitizers[@]} -eq 0 ]]; then
  sanitizers=(address undefined thread)
fi

for san in "${sanitizers[@]}"; do
  build_dir="build-${san}"
  echo "=== ${san}: configuring ${build_dir} ==="
  cmake -B "${build_dir}" -S . \
    -DHATEN2_SANITIZE="${san}" \
    -DHATEN2_BUILD_BENCHMARKS=OFF \
    -DHATEN2_BUILD_EXAMPLES=OFF
  echo "=== ${san}: building ==="
  cmake --build "${build_dir}" -j
  ctest_args=()
  if [[ "${san}" == "thread" ]]; then
    ctest_args=(-R '^(Serving|Engine|MapReduce|Scheduler|Plan|CostModel|ClusterConfig|SortMergeShuffle|LayoutIndependence|FailureInjection)')
  fi
  echo "=== ${san}: testing ==="
  (cd "${build_dir}" && ctest --output-on-failure "${ctest_args[@]}" -j)
  # Focused re-runs of the riskiest I/O paths under undefined, kept
  # explicit so a future filter on the full pass cannot silently drop
  # them: the text tensor reader (hostile indices near the int64 limits),
  # the binary tensor and delta-log readers (forged headers and entry
  # counts, and the seeded mutation fuzz of whole files) and the
  # checkpoint reader (directory names past INT_MAX, torn manifests and
  # factor files). CMakeLists.txt builds this leg with
  # -fno-sanitize-recover=undefined, so a report fails the test.
  if [[ "${san}" == "undefined" ]]; then
    echo "=== ${san}: focused decoder pass ==="
    (cd "${build_dir}" && \
     ctest --output-on-failure -R '^(TensorIo|TensorBinaryIo|DeltaLog|Checkpoint)' -j)
    # The in-core contraction kernels index compressed CSF streams with
    # arithmetic on attacker-ish inputs (duplicate coordinates, 10^12
    # dims, empty slices) and the fingerprint does deliberate unsigned
    # mixing; UBSan over the kernel and strategy suites is the cheapest
    # way to keep signed-overflow/shift bugs out of them.
    echo "=== ${san}: focused contraction-kernel pass ==="
    (cd "${build_dir}" && \
     ctest --output-on-failure -R '^(SparseKernels|Contraction)' -j)
  fi
done

echo "=== all sanitizer runs passed: ${sanitizers[*]} ==="
