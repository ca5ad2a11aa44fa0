#!/bin/sh
# Config fields that no caller varies.
#
# A field of a config struct exists while two callers set it: one value
# everywhere is a named const beside the code that reads it (DESIGN §5,
# "Constants and knobs"). In scope is every `pub` field of a
# `pub struct NAMECfg|NAMEConfig` under crates/*/src, except topology's
# shape data (`TestbedCfg`, `ThreeTierCfg`), and of `LinkSpec`, netsim's
# per-link parameters. A field is *set* where a
# line names it in a struct literal (`NAME: value`, the `Default` literal
# included) or assigns it (`.NAME = value`). Only tracked non-test code
# counts: crates/*/tests/ and tests/ are skipped, so is a file's
# `#[cfg(test)] mod tests` and all after it, and so is any other
# `#[cfg(test)]` item, to the end of that item. Lines that declare rather than set are
# skipped too: comments, struct and enum bodies, `fn` heads up to their
# `{` or `;`, and the typed name of a `let`. The check fails on a field set in fewer than two
# places.
#
# The check matches names, not paths: a NAME shared with an unrelated
# field, parameter or binding elsewhere counts as a setter and hides a
# miss.
cd "$(dirname "$0")/.." || exit 2
lone=$(git ls-files '*.rs' | grep -v '^crates/[^/]*/tests/' | grep -v '^tests/' | xargs awk '
  FNR == 1 { src = FILENAME ~ /^crates\/[^\/]*\/src\//; intest = 0; gated = 0; body = ""; cfg = ""; head = 0 }
  intest { next }
  # A `#[cfg(test)]` item: the test module ends the scan; any other is
  # skipped to the line that closes its brackets, or to its `;` or `,`
  # (strings and `//` comments aside).
  /^[ \t]*#\[cfg\(test\)\]/ {
    gated = 1; depth = 0; opened = 0
    sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "")
    if ($0 == "") next
  }
  gated {
    if (!opened && $0 ~ /^[ \t]*#\[/) next
    if (!opened && $0 ~ /^[ \t]*mod tests[ \t]*\{/) { intest = 1; next }
    t = $0
    gsub(/"([^"\\]|\\.)*"/, "", t)
    sub(/\/\/.*/, "", t)
    if (t ~ /\{/) opened = 1
    depth += gsub(/[({[]/, "", t) - gsub(/[])}]/, "", t)
    if (depth <= 0 && (opened || t ~ /[;,][ \t]*$/)) gated = 0
    next
  }
  { line = $0 }
  line ~ /^[ \t]*\/\// { next }
  # A struct or enum body, from its head to the brace that closes it.
  body == "" && match(line, /^[ \t]*(pub(\([a-z]+\))? )?(struct|enum) [A-Za-z_][A-Za-z0-9_]*.*\{[ \t]*$/) {
    match(line, /^[ \t]*/)
    body = substr(line, 1, RLENGTH) "}"
    cfg = ""
    if (src && match(line, /^pub struct ([A-Za-z_][A-Za-z0-9_]*(Cfg|Config)|LinkSpec)[ <{]/)) {
      split(line, word, /[ <{]+/)
      if (word[3] != "TestbedCfg" && word[3] != "ThreeTierCfg") cfg = word[3]
    }
    next
  }
  body != "" {
    if (line == body) { body = ""; cfg = ""; next }
    if (cfg != "" && match(line, /^[ \t]*pub [A-Za-z_][A-Za-z0-9_]*:/)) {
      n = split(substr(line, RSTART, RLENGTH - 1), word, " ")
      field[word[n]] = field[word[n]] " " cfg
      where[cfg SUBSEP word[n]] = FILENAME ":" FNR
    }
    next
  }
  # A fn head declares parameters up to its { or ;.
  line ~ /(^|[^A-Za-z0-9_])fn [A-Za-z_]/ { head = 1 }
  head { if (line ~ /\{|;[ \t]*$/) head = 0; next }
  { sub(/^[ \t]*let (mut )?[A-Za-z_][A-Za-z0-9_]*[ \t]*:/, "", line) }
  { rest = line
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*[ \t]*(:[^:]|:$|[-+*\/]?=[^=])/)) {
      tok = substr(rest, RSTART, RLENGTH)
      pre = RSTART > 1 ? substr(rest, RSTART - 1, 1) : ""
      rest = substr(rest, RSTART + RLENGTH)
      if (pre ~ /[A-Za-z0-9_:]/) continue
      match(tok, /^[A-Za-z_][A-Za-z0-9_]*/)
      name = substr(tok, 1, RLENGTH)
      # `name: value` in a literal, or `.name = value` on a place.
      if (tok ~ /=/ && pre != ".") continue
      sets[name]++
    }
  }
  END {
    for (k in where) {
      split(k, p, SUBSEP)
      if (sets[p[2]] < 2)
        print where[k] ": " p[1] "." p[2] " set in " (sets[p[2]] + 0) " place(s)"
    }
  }' | sort)
[ -z "$lone" ] && exit 0
echo "config fields no caller varies (make each a named const):"
echo "$lone"
exit 1
