#!/usr/bin/env bash
# Checks that the figure benches print the same simulated tables at a base
# git ref and in the working tree. The simulator is deterministic, so any
# difference is a behaviour change; only wall-clock timing, host and load
# lines are stripped before the diff.
#
# Builds the base ref (in a temporary `git worktree`) and the working tree
# in Release, runs each chosen bench in both, and diffs the normalised
# output. Exits 0 when every bench matches, 1 on any difference, 2 on usage
# errors, a failed build or a bench that exits non-zero (its stderr is kept
# in the work directory, which is then not removed).
#
# Usage: tools/compare_figures.sh <base-ref> [bench...]
#   tools/compare_figures.sh origin/main                 # all ten figures
#   tools/compare_figures.sh HEAD~1 bench_fig11_recovery_modes
#
# Environment:
#   COMPARE_FIGURES_DIR  scratch directory for the worktree, both build
#                        trees and the outputs (default: a fresh mktemp -d,
#                        removed on exit unless a bench differs or fails)
#   JOBS                 build parallelism (default: nproc)

set -euo pipefail

if [ "$#" -lt 1 ]; then
  sed -n '2,21p' "$0" >&2
  exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
base_ref="$1"
shift
if [ "$#" -gt 0 ]; then
  benches=("$@")
else
  benches=(
    bench_fig06_lrb_scaleout bench_fig07_lrb_latency
    bench_fig08_openloop_topk bench_fig09_threshold
    bench_fig10_manual_vs_dynamic bench_fig11_recovery_modes
    bench_fig12_ckpt_interval bench_fig13_parallel_recovery
    bench_fig14_ckpt_overhead bench_fig15_tradeoff
  )
fi
jobs="${JOBS:-$(nproc)}"

base_commit="$(git -C "${repo_root}" rev-parse --verify "${base_ref}^{commit}")"
work="${COMPARE_FIGURES_DIR:-$(mktemp -d)}"
mkdir -p "${work}"
base_src="${work}/base-src"
keep_work=0

cleanup() {
  git -C "${repo_root}" worktree remove --force "${base_src}" \
      >/dev/null 2>&1 || true
  if [ -z "${COMPARE_FIGURES_DIR:-}" ] && [ "${keep_work}" -eq 0 ]; then
    rm -rf "${work}"
  fi
}
trap cleanup EXIT

git -C "${repo_root}" worktree add --detach "${base_src}" "${base_commit}" \
    >/dev/null
# A stale build tree committed at an old ref must not leak into the build.
rm -rf "${base_src}/build"

build() {  # build <source dir> <build dir>
  if ! { cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j "${jobs}" --target "${benches[@]}"; } \
      >"$2.log" 2>&1; then
    tail -n 40 "$2.log" >&2
    echo "compare_figures: build of $1 failed (log: $2.log)" >&2
    keep_work=1
    exit 2
  fi
}

# Google Benchmark's own report: the separator and header rows, the timing
# columns of each result row (its counters are simulated values and stay),
# and the host/load preamble in case stderr was merged.
normalise() {
  sed -E \
      -e '/^-+$/d' \
      -e '/^Benchmark +Time +CPU +Iterations/d' \
      -e 's/^(BM_[^ ]+) +[0-9.e+-]+ [a-z]+ +[0-9.e+-]+ [a-z]+ +[0-9]+/\1/' \
      -e '/^[0-9]{4}-[0-9]{2}-[0-9]{2}T/d' \
      -e '/^Running /d' \
      -e '/^Run on /d' \
      -e '/^CPU Caches:/d' \
      -e '/^  L[0-9] /d' \
      -e '/^Load Average:/d' \
      -e '/^\*\*\*WARNING\*\*\*/d'
}

echo "building ${base_ref} (${base_commit:0:12}) and the working tree"
build "${base_src}" "${work}/base-build"
build "${repo_root}" "${work}/head-build"

status=0
for bench in "${benches[@]}"; do
  ran=1
  for side in base head; do
    if ! "${work}/${side}-build/bench/${bench}" \
        2>"${work}/${bench}.${side}.err" |
        normalise >"${work}/${bench}.${side}.txt"; then
      tail -n 20 "${work}/${bench}.${side}.err" >&2
      echo "compare_figures: ${bench} (${side}) failed" \
           "(stderr: ${work}/${bench}.${side}.err)" >&2
      keep_work=1
      status=2
      ran=0
    fi
  done
  [ "${ran}" -eq 1 ] || continue
  if diff -u "${work}/${bench}.base.txt" "${work}/${bench}.head.txt" \
      >"${work}/${bench}.diff"; then
    echo "identical: ${bench}"
  else
    echo "DIFFERS:   ${bench}"
    cat "${work}/${bench}.diff"
    [ "${status}" -eq 2 ] || status=1
  fi
done

if [ "${status}" -ne 0 ]; then
  keep_work=1
  echo "compare_figures: benches failed or differ; kept in ${work}" >&2
else
  echo "compare_figures: all ${#benches[@]} benches identical"
fi
exit "${status}"
