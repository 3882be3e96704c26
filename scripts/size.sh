#!/usr/bin/env bash
# size.sh prints the numbers a simplification is judged by, so "the line
# count goes down" is read off CI instead of hand-counted: non-test Go lines
# per internal/* package (assembly lines beside them where a package has
# any), the field counts of lake.Config and kvstore.Options (so "no new knob"
# is read off the same table) and of registry.Record (its fields are bytes
# per model on disk and in the KV heap), and the magic of every on-disk
# format. Run from anywhere; compare two checkouts with diff.
set -euo pipefail
cd "$(dirname "$0")/.."

lines() { # total lines of the files named on stdin (NUL-separated)
	xargs -0 -r cat | wc -l
}

echo "non-test Go lines per package"
for d in internal/*/; do
	asm="$(find "$d" -name '*.s' -print0 | lines)"
	printf '  %-24s %6d%s\n' "${d%/}" \
		"$(find "$d" -name '*.go' ! -name '*_test.go' -print0 | lines)" \
		"$([ "$asm" -gt 0 ] && echo "  + $asm asm")"
done
printf '  %-24s %6d\n' "internal (total)" \
	"$(find internal -name '*.go' ! -name '*_test.go' -print0 | lines)"
printf '  %-24s %6d\n' "all non-test Go" \
	"$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 | lines)"
printf '  %-24s %6d\n' "all assembly" \
	"$(find . -path ./bench -prune -o -name '*.s' -print0 | lines)"
printf '  %-24s %6d\n' "all test Go" \
	"$(find . -path ./bench -prune -o -name '*_test.go' -print0 | lines)"

fields() { # number of fields of the struct type $1 declared in file $2
	awk -v decl="type $1 struct" '
		index($0, decl) == 1   { in_struct = 1; next }
		in_struct && /^}/      { exit }
		in_struct && $1 !~ /^\/\// && NF > 0 { n++ }
		END { print n + 0 }' "$2"
}
echo "option fields"
printf '  %-24s %6d\n' "lake.Config" "$(fields Config internal/lake/config.go)"
printf '  %-24s %6d\n' "kvstore.Options" "$(fields Options internal/kvstore/kvstore.go)"
echo "per-model record fields"
printf '  %-24s %6d\n' "registry.Record" "$(fields Record internal/registry/registry.go)"

echo "on-disk format magics"
grep -rnE '^\s*(const\s+)?\w*[mM]agic\w*(\s+\w+)?\s*=' --include='*.go' internal |
	grep -v '_test\.go:' | sed -E 's/^([^:]+):[0-9]+:\s*(const\s+)?/  \1  /'
