#!/bin/sh
# Code references in the docs that point nowhere.
#
# Every backticked `path.rs`, `path.rs:N` or `path.rs:N–M` in DESIGN.md,
# EXPERIMENTS.md and README.md must name a tracked file, matched by path
# suffix (`netsim/src/sim.rs` and `sim.rs` both match
# crates/netsim/src/sim.rs; `src/{a,b}.rs` names two files), and N and M
# must be lines within it. Where several tracked files share the suffix,
# one long enough is enough. ROADMAP.md is left out: it quotes the paths
# of its time on purpose.
cd "$(dirname "$0")/.." || exit 2
bad=$(git ls-files '*.rs' | xargs wc -l | awk '
  NR == FNR { if ($2 != "total") len[$2] = $1; next }
  { rest = $0
    while (match(rest, /`[^`]*`/)) {
      span = substr(rest, RSTART + 1, RLENGTH - 2)
      rest = substr(rest, RSTART + RLENGTH)
      if (span !~ /^[A-Za-z0-9_.\/{},-]+\.rs(:[0-9]+((–|-)[0-9]+)?)?$/) continue
      path = span; hi = 0
      if ((i = index(span, ":")) > 0) {
        path = substr(span, 1, i - 1)
        n = split(substr(span, i + 1), num, /–|-/)
        hi = num[n] + 0
      }
      # One `{a,b}` group expands to one path per alternative.
      np = 1; alt[1] = path
      if (match(path, /\{[^}]*\}/)) {
        pre = substr(path, 1, RSTART - 1); post = substr(path, RSTART + RLENGTH)
        np = split(substr(path, RSTART + 1, RLENGTH - 2), alt, ",")
        for (j = 1; j <= np; j++) alt[j] = pre alt[j] post
      }
      for (j = 1; j <= np; j++) {
        p = alt[j]; found = 0; fits = 0
        for (f in len)
          if (f == p || substr(f, length(f) - length(p)) == "/" p) {
            found = 1
            if (hi <= len[f]) fits = 1
          }
        if (!found) print FILENAME ":" FNR ": `" span "`: no tracked file " p
        else if (!fits) print FILENAME ":" FNR ": `" span "`: " p " has fewer than " hi " lines"
      }
    }
  }' - DESIGN.md EXPERIMENTS.md README.md)
[ -z "$bad" ] && exit 0
echo "doc references that name no tracked file or line:"
echo "$bad"
exit 1
