#!/bin/sh
# Config fields that no caller varies.
#
# A field of a config struct exists while two callers set it: one value
# everywhere is a named const beside the code that reads it (DESIGN §5,
# "Constants and knobs"). In scope is every `pub` field of a
# `pub struct NAMECfg|NAMEConfig` under crates/*/src, except topology's
# shape data (`TestbedCfg`, `ThreeTierCfg`), and of `LinkSpec`, netsim's
# per-link parameters. A field is *set* where a struct literal names it
# (`NAME: value` or shorthand `NAME`, the `Default` literal included) or
# a line assigns it (`.NAME = value`). A literal sets only the fields of
# its own type: the `Type {` or `Self {` that encloses it, `Self` being
# the type of the enclosing `impl`. Only tracked non-test code
# counts: crates/*/tests/ and tests/ are skipped, so is a file's
# `#[cfg(test)] mod tests` and all after it, and so is any other
# `#[cfg(test)]` item, to the end of that item. Lines that declare rather than set are
# skipped too: comments, struct and enum bodies, `fn` heads up to their
# `{` or `;`, and the bindings of a `let Type { .. }` pattern. A setter
# inside the body of a `with_*` builder counts only if a scanned line
# calls that builder: a builder only tests call varies nothing. The
# check fails on a field set in fewer than two places.
#
# An assignment `.NAME = value` still matches by name: it counts for
# every in-scope field called NAME, whatever the type of the place.
cd "$(dirname "$0")/.." || exit 2
lone=$(git ls-files '*.rs' | grep -v '^crates/[^/]*/tests/' | grep -v '^tests/' | xargs awk '
  FNR == 1 { src = FILENAME ~ /^crates\/[^\/]*\/src\//; intest = 0; gated = 0; body = ""; cfg = ""; head = 0; builder = ""; sp = 0; selftype = "" }
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
      where[cfg SUBSEP word[n]] = FILENAME ":" FNR
    }
    next
  }
  # Calls of a `with_*` builder, and the body of one, from its head to
  # the brace that closes it (strings and `//` comments aside).
  { rest = line
    while (match(rest, /(fn[ \t]+)?[A-Za-z0-9_]*with_[A-Za-z0-9_]*[ \t]*\(/)) {
      tok = substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
      if (tok ~ /^with_/) { sub(/[ \t]*\($/, "", tok); calls[tok]++ }
    }
  }
  { inbuilder = "" }
  builder == "" && match(line, /(^|[^A-Za-z0-9_])fn with_[A-Za-z0-9_]*/) {
    builder = substr(line, RSTART, RLENGTH)
    sub(/.*fn /, "", builder)
    bdepth = 0; bopened = 0
  }
  builder != "" {
    t = line
    gsub(/"([^"\\]|\\.)*"/, "", t)
    sub(/\/\/.*/, "", t)
    if (t ~ /\{/) bopened = 1
    bdepth += gsub(/\{/, "", t) - gsub(/\}/, "", t)
    inbuilder = builder
    if (bopened && bdepth <= 0) builder = ""
  }
  # A fn head declares parameters up to its { or ;.
  line ~ /(^|[^A-Za-z0-9_])fn [A-Za-z_]/ { head = 1 }
  { inhead = head; if (head && line ~ /\{|;[ \t]*$/) head = 0 }
  # The tokens of the line outside strings, char literals and comments.
  { t = line
    gsub(/"([^"\\]|\\.)*"/, "\"\"", t)
    gsub(/\047([^\047\\]|\\.)\047/, "c", t)
    sub(/\/\/.*/, "", t)
    delete tk; nt = 0
    while (t != "") {
      if (match(t, /^[ \t]+/)) { t = substr(t, RLENGTH + 1); continue }
      if (!match(t, /^[A-Za-z_][A-Za-z0-9_]*/) && !match(t, /^(::|->|=>|\.\.|[-+*\/%^|&!=<>]=)/)) RLENGTH = 1
      tk[++nt] = substr(t, 1, RLENGTH)
      t = substr(t, RLENGTH + 1)
    }
  }
  # `Self` in an impl: the last type name outside `<>` before `{`/`where`.
  tk[1] == "impl" {
    selftype = ""; ang = 0
    for (i = 2; i <= nt && tk[i] != "{" && tk[i] != "where"; i++) {
      if (tk[i] == "<") ang++
      else if (tk[i] == ">") ang--
      else if (ang == 0 && tk[i] == "for") selftype = ""
      else if (ang == 0 && tk[i] ~ /^[A-Za-z_]/) selftype = tk[i]
    }
  }
  # Every bracket opens a frame; `Type {` or `Self {` outside a fn head
  # or a keyword head (`if`, `match`, `impl`, ...) or a `let` pattern opens the
  # literal of Type. A `NAME: value` or shorthand `NAME` directly in a
  # literal sets a field of that type; `.NAME = value` sets any field NAME.
  { for (i = 1; i <= nt; i++) {
      x = tk[i]
      if (x == "{" || x == "(" || x == "[") {
        ty = ""; d = 0
        if (x == "{" && !inhead && (tk[i - 1] ~ /^[A-Z]/ || tk[i - 1] == "Self")) {
          ty = tk[i - 1] == "Self" ? selftype : tk[i - 1]
          if (tk[i - 2] == "let") ty = ""
          for (j = i - 1; j >= 1 && tk[j] !~ /^[{};]$/; j--) {
            if (tk[j] ~ /^[)\]]$/) d++
            else if (tk[j] ~ /^[(\[]$/ && d-- == 0) break
            else if (d == 0 && tk[j] ~ /^(struct|enum|union|trait|impl|mod|fn|if|while|match|for|where)$/) ty = ""
          }
        }
        frame[++sp] = ty
        continue
      }
      if (x == "}" || x == ")" || x == "]") { if (sp > 0) sp--; continue }
      if (inhead || x !~ /^[A-Za-z_]/) continue
      lit = sp > 0 ? frame[sp] : ""
      if (tk[i - 1] == "." && tk[i + 1] ~ /^[-+*\/]?=$/) key = "*" SUBSEP x
      else if (lit != "" && tk[i - 1] != "::" && (tk[i + 1] == ":" || (tk[i - 1] ~ /^[{,]?$/ && tk[i + 1] ~ /^[,}]?$/))) key = lit SUBSEP x
      else continue
      if (inbuilder != "") built[inbuilder SUBSEP key]++
      else sets[key]++
    }
  }
  END {
    for (k in built) {
      split(k, p, SUBSEP)
      if (calls[p[1]] > 0) sets[p[2] SUBSEP p[3]] += built[k]
    }
    for (k in where) {
      split(k, p, SUBSEP)
      n = sets[k] + sets["*" SUBSEP p[2]]
      if (n < 2) print where[k] ": " p[1] "." p[2] " set in " n " place(s)"
    }
  }' | sort)
[ -z "$lone" ] && exit 0
echo "config fields no caller varies (make each a named const):"
echo "$lone"
exit 1
