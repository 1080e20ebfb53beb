#!/usr/bin/env bash
# Pins the source of the benchmark's reference build. Writes
# bench/reference/src.tar.gz: go.mod, cmd/paperbench's default.pgo, the
# non-test Go files and embedded files of every repository package that
# cmd/paperbench or the benchmark imports, and the benchmark's own module,
# laid out as in the repository so that both builds come out alike. The
# archive is deterministic: the same tree gives the same bytes. Run it
# from the repository root to pin the current tree:
#
#   bash bench/reference/snapshot.sh
set -euo pipefail

root="$(pwd)"
files='{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}
{{end}}{{range .EmbedFiles}}{{$d}}/{{.}}
{{end}}'
{
	echo go.mod
	echo bench/go.mod
	echo cmd/paperbench/default.pgo
	go list -deps -f "{{if not .Standard}}${files}{{end}}" ./cmd/paperbench
	go -C bench list -deps -f "{{if not .Standard}}${files}{{end}}" .
} | sed "s#^$root/##" | grep -v '^$' | sort -u |
	tar -C "$root" --sort=name --mtime=@0 --owner=0 --group=0 --numeric-owner -cf - -T - |
	gzip -n -9 >bench/reference/src.tar.gz
