#!/usr/bin/env sh
# Regenerates EVERY checked-in golden artifact in tests/goldens/ after an
# *intentional* behavior change. Run from the repo root with a configured
# build (cmake -B build -S . && cmake --build build -j), review the metric
# deltas in the git diff, and explain the change in the commit message.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$root/build}"
qa_trace="$build/tools/qa_trace"
qa_farm="$build/tools/qa_farm"

for tool in "$qa_trace" "$qa_farm"; do
  if [ ! -x "$tool" ]; then
    echo "update_goldens: $tool not built" >&2
    exit 1
  fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The pinned fig-2 scenario, once per congestion-control backend; the
# flags must match tools/qa_golden_check.cmake. The rap golden keeps its
# historic directory name (fig2); the other backends get fig2_<backend>.
for backend in rap tfrc nada; do
  case "$backend" in
    rap) dir="fig2" ;;
    *) dir="fig2_$backend" ;;
  esac
  "$qa_trace" --out-dir "$work/$dir" --backend "$backend" --seed 1 \
      --duration-s 10 --layers 4 --kmax 1 --no-trace --no-profile > /dev/null
  mkdir -p "$root/tests/goldens/$dir"
  cp "$work/$dir/metrics.json" "$root/tests/goldens/$dir/metrics.json"
  echo "updated $root/tests/goldens/$dir/metrics.json"
done

# The farm's smoke and overload presets; must match the farm branch of
# tools/qa_golden_check.cmake.
for preset in smoke overload; do
  "$qa_farm" --preset "$preset" --out-dir "$work/farm_$preset" > /dev/null
  mkdir -p "$root/tests/goldens/farm_$preset"
  cp "$work/farm_$preset/metrics.json" \
      "$root/tests/goldens/farm_$preset/metrics.json"
  echo "updated $root/tests/goldens/farm_$preset/metrics.json"
done
