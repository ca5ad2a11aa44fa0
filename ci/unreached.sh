#!/bin/sh
# Fail on any `pub fn|struct|enum|trait|const NAME` under crates/*/src whose
# NAME occurs exactly once in the tracked `*.rs` files: its definition and
# nothing else, so no binary, example, benchmark or test reaches it. An item
# kept alive only by its own unit test still passes; that is for review.
cd "$(dirname "$0")/.." || exit 2
unreached=$(git ls-files '*.rs' | xargs awk '
  { rest = $0
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
      seen[substr(rest, RSTART, RLENGTH)]++
      rest = substr(rest, RSTART + RLENGTH)
    } }
  FILENAME ~ /^crates\/[^\/]*\/src\// &&
  match($0, /pub (fn|struct|enum|trait|const) [A-Za-z_][A-Za-z0-9_]*/) {
    split(substr($0, RSTART, RLENGTH), word, " ")
    def[word[3]] = FILENAME ":" FNR
  }
  END { for (name in def) if (seen[name] == 1) print def[name] ": " name }' | sort)
[ -z "$unreached" ] && exit 0
echo "pub items nothing reaches (delete them, or their caller is missing):"
echo "$unreached"
exit 1
