#!/usr/bin/env bash
# dead_exports.sh — flag exported package-level functions in internal/
# packages that nothing else in the repository uses. internal/ packages have
# no external importers by construction, so an export nobody else uses is
# either dead code or should be unexported. Methods, types, and constants
# are out of scope: interface satisfaction and struct embedding make
# name-grep too imprecise for them.
#
# A function Name declared in directory D counts as used when either
#   - D's qualifier and Name appear together, pkg.Name, in a file that
#     imports D — with the import's alias resolved, so pgplan.ForNFA is a
#     use of internal/pg/plan's ForNFA — or
#   - the bare Name appears in a file of D other than on its declaration
#     line.
# Comment lines count for neither. Qualifying the outside uses keeps one
# package's Name from keeping another package's Name alive.
set -euo pipefail
cd "$(dirname "$0")/.."

module=$(awk '$1 == "module" { print $2; exit }' go.mod)

# Every dir|Name some file reaches through an import of dir.
uses=$(find . -name '*.go' -not -path './.git/*' -print0 | xargs -0 awk -v module="$module" '
  FNR == 1 { delete qual; inimport = 0 }
  # Import clauses: a block, or a single line.
  /^import \($/ { inimport = 1; next }
  inimport && /^\)/ { inimport = 0; next }
  inimport || /^import / {
    line = $0
    sub(/^import[ \t]+/, "", line)
    if (match(line, "\"" module "/[^\"]+\"")) {
      path = substr(line, RSTART + length(module) + 2, RLENGTH - length(module) - 3)
      alias = substr(line, 1, RSTART - 1)
      gsub(/[ \t]/, "", alias)
      if (alias == "") { alias = path; sub(/.*\//, "", alias) }
      qual[alias] = path
    }
    next
  }
  /^[ \t]*\/\// { next }
  {
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*\.[A-Z][A-Za-z0-9_]*/)) {
      before = RSTART > 1 ? substr(line, RSTART - 1, 1) : ""
      word = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      if (before ~ /[A-Za-z0-9_.]/) continue
      dot = index(word, ".")
      q = substr(word, 1, dot - 1)
      if (q in qual) print qual[q] "|" substr(word, dot + 1)
    }
  }' | sort -u)

status=0
while IFS='|' read -r file lineno name; do
  [ -n "$name" ] || continue
  dir=$(dirname "$file")
  if grep -qxF -- "$dir|$name" <<<"$uses"; then
    continue
  fi
  # (No grep -q on a pipeline here: its early exit SIGPIPEs the upstream
  # grep, which pipefail would then report as the pipeline's failure.)
  refs=$(grep -nw -- "$name" "$dir"/*.go |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -v "^$file:$lineno:" || true)
  if [ -z "$refs" ]; then
    echo "dead export: $file: func $name"
    status=1
  fi
done < <(grep -rn --include='*.go' -E '^func [A-Z][A-Za-z0-9_]*\(' internal | grep -v _test.go |
  sed -E 's/^([^:]+):([0-9]+):func ([A-Z][A-Za-z0-9_]*)\(.*/\1|\2|\3/')
exit $status
