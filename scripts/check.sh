#!/usr/bin/env bash
# Repo checks: the tier-1 build + test suite + a standalone build of the
# repo benchmark (perfbench), then a ThreadSanitizer build
# of the concurrency-sensitive pieces (serving runtime + stores) and their
# tests, then an ASan+UBSan build of the engine, the chase, the pivot
# model, the PACB rewriter and its goldens, the system and property
# tests, the regression seeds, the randomized differential sweep and the
# failure/recovery paths. Every step is fail-fast (set -e): the first
# broken check stops the run.
#
# Usage: scripts/check.sh [--fuzz] [jobs]
#   --fuzz   additionally run a 2-minute randomized differential soak
#            (bench/soak_differential; see TESTING.md) with a fresh seed
#            range. Failing seeds land in build/soak-failures/.
set -euo pipefail

cd "$(dirname "$0")/.."

FUZZ=0
JOBS=""
for arg in "$@"; do
  case "$arg" in
    --fuzz) FUZZ=1 ;;
    *) JOBS="$arg" ;;
  esac
done
JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== tier-1: perfbench standalone build =="
cmake -S perfbench -B .bench_build/perfbench >/dev/null
cmake --build .bench_build/perfbench --target perfbench -j "$JOBS"

echo "== TSan: build engine_test + runtime_test + stores_test + migration_test + tuner_test + replication_test + scaleout_test + graph_test + golden_rewritings =="
cmake -B build-tsan -S . -DESTOCADA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target engine_test runtime_test stores_test migration_test tuner_test \
  replication_test scaleout_test graph_test golden_rewritings

echo "== TSan: run =="
(cd build-tsan/tests && ./engine_test && ./runtime_test && ./stores_test \
  && ./migration_test && ./tuner_test && ./replication_test \
  && ./scaleout_test && ./graph_test && ./golden_rewritings)

echo "== ASan+UBSan: build engine_test + chase_test + failure_test + runtime_test + stores_test + migration_test + tuner_test + replication_test + scaleout_test + serialize_test + rewriting_test + maintenance_test + graph_test + drivers_test + pacb_test + pivot_test + golden_rewritings + system_test + properties_test + regression_seeds + fuzz_differential =="
cmake -B build-asan -S . -DESTOCADA_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target engine_test chase_test failure_test runtime_test stores_test \
  migration_test tuner_test replication_test scaleout_test serialize_test \
  rewriting_test maintenance_test graph_test drivers_test pacb_test \
  pivot_test golden_rewritings system_test properties_test regression_seeds \
  fuzz_differential

echo "== ASan+UBSan: run =="
(cd build-asan/tests && ./engine_test && ./chase_test && ./failure_test \
  && ./runtime_test && ./stores_test \
  && ./migration_test && ./tuner_test && ./replication_test \
  && ./scaleout_test && ./serialize_test \
  && ./rewriting_test && ./maintenance_test && ./graph_test \
  && ./drivers_test && ./pacb_test && ./pivot_test && ./golden_rewritings \
  && ./system_test && ./properties_test && ./regression_seeds \
  && ./fuzz_differential)

if [[ "$FUZZ" == "1" ]]; then
  echo "== fuzz: 2-minute differential soak =="
  ./build/bench/soak_differential --minutes=2 \
    --artifact-dir=build/soak-failures
fi

echo "== all checks passed =="
