#!/usr/bin/env bash
# deadcode.sh — fail on dead code under internal/, in three phases.
#
# Phase 1 fails when a function under internal/ is linked into no binary. It
# builds every main package of the module with inlining off
# (-gcflags=all=-l, so a function that is only ever inlined still leaves a
# symbol), collects the adaserve/internal/... symbols with `go tool nm`, and
# compares them against every non-test `func` declaration under internal/.
# A declared function that no binary links is dead: delete it, move it into
# a _test.go file if only tests use it, or list it in scripts/deadcode.allow
# with the reason it stays.
#
# Function names are `<package path under internal/>.<Func>` or
# `<package path>.<Type>.<Method>`, e.g. `kvcache.Allocator.checkInvariants`.
# Generic instantiations (`Table[go.shape.int]`), pointer-receiver forms
# (`(*Manager)`) and closures (`.func1`) are normalised to those names.
#
# Phase 2 (scripts/writeonly) fails when a struct field under internal/ is
# written but read by no non-test code: delete it, or list it in the allow
# file as `field <name> <reason>` when something reads it another way
# (reflection, a map key, an event payload). Writes through an element
# (`x.f[i] = v`, `x.f[i] op= v`, `x.f[i]++`) and reads that only feed the
# field back into itself (`x.f = x.f[:n]`, `x.f = append(x.f, …)`) count as
# writes.
#
# Phase 3 (the same binary) fails when an exported identifier under
# internal/ is used by no other package's non-test code: unexport it, or
# list it as `export <name> <reason>` when it needs its exported name (a
# field printed through %+v, an observer payload). Methods that satisfy an
# interface and types reachable from something another package uses stay
# exported. Each phase reads only its own allow entries and fails on a
# stale one.
#
# The allow file's `field` and `export` entries together may not exceed
# max_kept below: a new entry must raise that constant in the same diff.
#
# Usage: scripts/deadcode.sh     (exit 0: nothing dead outside the allow list)
set -euo pipefail
cd "$(dirname "$0")/.."

module=$(go list -m)
allow=scripts/deadcode.allow
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Linked: every internal symbol of every main package.
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
  go build -gcflags=all=-l -o "$work/bin" "$pkg"
  # Shape-instantiated names contain spaces: keep everything after the type.
  go tool nm "$work/bin" | sed -E 's/^[[:space:]]*[0-9a-f]*[[:space:]]+[A-Za-z][[:space:]]+//' >> "$work/syms.raw"
done
grep "^$module/internal/" "$work/syms.raw" |
  sed -E -e "s|^$module/internal/||" \
    -e 's/\.\.dict\././' \
    -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' \
    -e 's/\(\*([A-Za-z0-9_]+)\)/\1/' \
    -e 's/(\.(func|gowrap|deferwrap)[0-9]+)+$//' |
  sort -u > "$work/linked"

# Declared: every non-test func under internal/, as package.[Type.]Name.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
  dir=${f#internal/}
  dir=${dir%/*}
  sed -nE \
    -e 's/^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\2.\4/p' \
    -e 's/^func ([A-Za-z0-9_]+).*/\1/p' "$f" |
    grep -vxE 'init|main' | sed "s|^|$dir.|" || true
done | sort -u > "$work/declared"

awk '!/^[[:space:]]*(#|$)/ && $1 != "field" && $1 != "export" {print $1}' "$allow" | sort -u > "$work/allowed"

comm -23 "$work/declared" "$work/linked" | comm -23 - "$work/allowed" > "$work/dead"
comm -13 "$work/declared" "$work/allowed" > "$work/stale"

status=0
if [ -s "$work/dead" ]; then
  echo "deadcode: functions under internal/ that no binary links:" >&2
  sed 's/^/  /' "$work/dead" >&2
  echo "delete them, move test-only helpers into _test.go, or list them in $allow with a reason" >&2
  status=1
fi
if [ -s "$work/stale" ]; then
  echo "deadcode: $allow names functions that are not declared:" >&2
  sed 's/^/  /' "$work/stale" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "deadcode: $(wc -l < "$work/declared") functions under internal/, none dead outside $allow"

# Ceiling on the names phases 2 and 3 let stay.
max_kept=38
kept=$(grep -cE '^(field|export) ' "$allow" || true)
if [ "$kept" -gt "$max_kept" ]; then
  echo "deadcode: $allow has $kept field/export entries, over the ceiling of $max_kept in $0" >&2
  status=1
else
  echo "deadcode: $kept field/export entries in $allow, ceiling $max_kept"
fi

# Phase 2: write-only fields.
go build -o "$work/writeonly" ./scripts/writeonly
"$work/writeonly" -allow "$allow" . || status=1
exit "$status"
