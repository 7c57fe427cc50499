#!/usr/bin/env bash
# Builds the served-path benchmark and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh -seed 1 -out /tmp/b
#
# Builds, the Go build cache and Go's temporary files stay in
# .bench_build/ (or $CARGO_TARGET_DIR when set) under the root.
set -euo pipefail
root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/servebench" .
exec "$build/servebench" -root "$root" -build "$build" "$@"
