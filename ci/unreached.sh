#!/bin/sh
# What rustc cannot see about the `pub` surface under crates/*/src.
#
# rustc's dead_code never fires on a `pub` item of a library crate, so the
# crates keep every item that no other crate needs at `pub(crate)` or
# narrower; CI's `-D warnings` then names any item nothing outside its
# tests reaches. Two checks cover what is left, the items that are `pub`:
#
# 1. Zero callers: a `pub fn|struct|enum|trait|const|type|static|mod NAME`
#    whose NAME occurs exactly once in the tracked `*.rs` files (its own
#    definition), so no binary, example, benchmark or test reaches it.
# 2. Nothing outside its crate: a `pub` NAME under crates/X/src that occurs
#    in no tracked `*.rs` file outside crates/X/src/ (another crate,
#    crates/X/tests/, examples/, the umbrella tests/, ufabbench/; a binary
#    under crates/X/src/bin/ is a crate of its own, so it counts as
#    outside too), so it should be `pub(crate)`. A NAME that appears in the signature of another
#    `pub` item of crates/X/src counts as reached: rustc's
#    `private_interfaces` lint keeps a type `pub` while a `pub` item exposes
#    it. The script recognises such a signature by text: a line starting
#    with `pub ` (a field, alias, const or the head of a `pub fn`) and the
#    continuation lines of a `pub fn` head up to its `{` or `;`.
#
# Both checks match names, not paths: a NAME shared with an unrelated item
# elsewhere hides a miss. The compiler is the exact side of the rule.
cd "$(dirname "$0")/.." || exit 2
unreached=$(git ls-files '*.rs' | xargs awk '
  function src_crate(f) {
    if (f !~ /^crates\/[^\/]*\/src\// || f ~ /^crates\/[^\/]*\/src\/bin\//) return ""
    return substr(f, 8, index(substr(f, 8), "/") - 1)
  }
  FNR == 1 { own = src_crate(FILENAME); insig = 0 }
  { line = $0
    head = line ~ /^[ \t]*pub (unsafe )?(const )?fn /
    sig = own != "" && (insig || (line ~ /^[ \t]*pub / && line !~ /^[ \t]*pub use /))
    def = ""
    if (own != "" && match(line, /^[ \t]*pub (unsafe )?(const fn|fn|struct|enum|trait|const|type|static|mod) [A-Za-z_][A-Za-z0-9_]*/)) {
      n = split(substr(line, RSTART, RLENGTH), word, " ")
      def = word[n]
      defs[own SUBSEP def] = FILENAME ":" FNR
    }
    rest = line
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
      w = substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
      seen[w]++
      if (own == "") { outside[w] = 1; continue }
      if (!((own, w) in in_crate)) { in_crate[own, w] = 1; crates[w]++ }
      if (sig && w != def) in_sig[own, w] = 1
    }
    if (head) insig = 1
    if (insig && (line ~ /\{/ || line ~ /;[ \t]*$/)) insig = 0
  }
  END {
    for (k in defs) {
      split(k, p, SUBSEP); x = p[1]; name = p[2]
      if (seen[name] == 1)
        print defs[k] ": " name " (no caller at all)"
      else if (!(name in outside) && crates[name] == 1 && !((x, name) in in_sig))
        print defs[k] ": " name " (nothing outside crates/" x "/src names it)"
    }
  }' | sort)
[ -z "$unreached" ] && exit 0
echo "pub items to delete or narrow to pub(crate):"
echo "$unreached"
exit 1
