#!/usr/bin/env bash
# Re-make every committed golden from its own command line at --jobs 1
# and 4 and diff it against ci/golden/: stdout for all twenty-three, and
# for dse also its two CSVs. A pairwise jobs=1-vs-4 diff passes a change
# that moves both sides; a golden does not.
#
# usage: ci/check_goldens.sh [path/to/repro]   (default target/release/repro)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
repro=$(readlink -f "${1:-$root/target/release/repro}")
golden=$root/ci/golden
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# golden stem | the arguments the golden was made with
cases=(
  "fig11_quick|fig11 --quick"
  "fig5_quick|fig5 --quick"
  "fig12_quick|fig12 --quick"
  "fig13_quick|fig13 --quick"
  "fig14_quick|fig14 --quick"
  "fig16_quick|fig16 --quick"
  "ablate_quick|ablate --quick"
  "fig4_quick|fig4 --quick"
  "fig15a_quick|fig15a --quick"
  "fig15b_quick|fig15b --quick"
  "fig18c_quick|fig18c --quick"
  "fig20_quick|fig20 --quick"
  "tokens_quick|tokens --quick"
  "table3_quick|table3 --quick"
  "table4_quick|table4 --quick"
  "chaos_all_seed1|chaos --plan all --seed 1"
  "churn_64_seed2|churn --servers 64 --seed 2"
  "abuse_64_seed2|abuse --servers 64 --seed 2"
  "abuse_64_seed2_h30x8|abuse --servers 64 --seed 2 --hostile-pct 30 --abuse-intensity 8"
  "ops_64_seed2|ops --servers 64 --seed 2"
  "dse_64_seed2|dse --grid quick --servers 64 --seed 2"
  "churn_512_seed1|churn --servers 512 --seed 1"
  "ops_512_seed1|ops --servers 512 --seed 1"
)

fail=0
for c in "${cases[@]}"; do
  stem=${c%%|*}
  args=${c#*|}
  for jobs in 1 4; do
    echo "== $stem: repro $args --jobs $jobs"
    dir=$work/$stem-j$jobs
    mkdir -p "$dir/results"
    # shellcheck disable=SC2086  # $args is a word list on purpose
    if ! (cd "$dir" && "$repro" $args --jobs "$jobs" >stdout 2>stderr); then
      cat "$dir/stderr"
      fail=1
      continue
    fi
    diff -u "$golden/$stem.stdout" "$dir/stdout" || fail=1
    # ci/golden/dse_64_seed2_grid.csv is results/dse_grid.csv, and so on.
    for csv in "$golden/$stem"_*.csv; do
      [ -e "$csv" ] || continue
      diff -u "$csv" "$dir/results/${stem%%_*}_${csv##*_}" || fail=1
    done
  done
done
exit $fail
