#!/bin/sh
# reach.sh — list every function under internal/ that no program links.
#
# Usage:
#   sh scripts/reach.sh      one symbol per line, sorted; nothing when every
#                            internal function runs in some program
#
# The programs are the commands under cmd/, the examples under examples/
# and the end-to-end benchmark in perf/ (its own module, built the way
# perf/run.sh builds it). Each is built with inlining off, so every
# function a program can call keeps its symbol in the binary, and the
# union of their symbols is diffed against the functions each internal
# package defines. Not listed: String and Error methods (fmt and the
# error interface call them through interfaces), package init, closures,
# defer and go wrappers, method values, the pointer wrappers the compiler
# adds for value methods, and the method-expression wrappers it emits for
# interface methods. A generic function has symbols only where some package
# instantiates it, so one that nothing instantiates is not seen.
#
# CI fails on a printed symbol that is not the first word of a line of
# scripts/reach.allow, and on an allowlisted symbol no longer printed;
# the rest of each allowlist line says which other package's tests need
# the function.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd perf && GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	go build -gcflags=all=-l -o "$tmp/bin/perf" .)

for bin in "$tmp"/bin/*; do
	go tool nm "$bin" >> "$tmp/linked"
done
go list -export -gcflags=all=-l -f '{{.Export}}' ./internal/... > "$tmp/archives"
while read -r archive; do
	go tool nm "$archive" >> "$tmp/defined"
done < "$tmp/archives"

awk -v p="$(go list -m)/internal/" '
	index($3, p) != 1 { next }
	FILENAME == ARGV[1] && ($2 == "T" || $2 == "t") { linked[$3] = 1 }
	FILENAME == ARGV[2] && $2 == "T" && !($3 in defined) { defined[$3] = 1; syms[++n] = $3 }
	END {
		for (i = 1; i <= n; i++) {
			s = syms[i]
			if (s in linked) continue
			if (s ~ /\.(func|deferwrap|gowrap)[0-9]/ || s ~ /-fm$/) continue
			if (s ~ /\.init(\.[0-9]+)?$/ || s ~ /\.(String|Error)$/) continue
			pkg = s; sub(/\.[^\/]*$/, "", pkg)
			name = substr(s, length(pkg) + 2)
			if (name ~ /^\(\*/) {
				# (*T).M is the compiler wrapper of a value method T.M.
				v = name; sub(/^\(\*/, "", v); sub(/\)\./, ".", v)
				if ((pkg "." v) in defined) continue
			} else if (split(name, part, ".") == 2) {
				# T.M with no (*T).M beside it is an interface method
				# expression: a value method always has its pointer wrapper.
				if (!((pkg ".(*" part[1] ")." part[2]) in defined)) continue
			}
			print s
		}
	}' "$tmp/linked" "$tmp/defined" | sort
