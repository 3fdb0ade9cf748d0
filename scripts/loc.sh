#!/bin/sh
# Non-test Go lines per package (raw `wc -l`, comments and blanks
# included), excluding the nested benchmark module under bench/ and
# hidden build directories. `make loc` runs it; a simplification PR
# quotes its output at the parent commit and at the change.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/.*/*' -print |
	sort |
	while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
	     END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
	           close("sort -k2"); printf "%7d total\n", total }'
