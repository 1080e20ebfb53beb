#!/usr/bin/env bash
# Builds the benchmark and paperbench into .bench_build, builds the
# reference build from the source pinned in bench/reference/src.tar.gz
# into .bench_build/ref, and runs the benchmark with the arguments given.
# Both sides build the same way, without file paths or VCS stamps, so
# from the same source they give the same bytes. The Go build cache,
# temporary files and the go command's own configuration and telemetry
# are kept in .bench_build too, so a run writes nothing outside the
# checkout. Run it from the repository root:
#
#   bash bench/run.sh --workload fig7-lib --seed 1 --seconds 25 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
build=(build -trimpath -buildvcs=false)

go -C bench "${build[@]}" -o "$out/bench" .
go "${build[@]}" -o "$out/paperbench" ./cmd/paperbench

ref="$out/ref"
rm -rf "$ref/src"
mkdir -p "$ref/src"
tar -xzf bench/reference/src.tar.gz -C "$ref/src"
go -C "$ref/src/bench" "${build[@]}" -o "$ref/bench" .
go -C "$ref/src" "${build[@]}" -o "$ref/paperbench" ./cmd/paperbench

exec "$out/bench" "$@"
