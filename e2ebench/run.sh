#!/usr/bin/env bash
# Builds the end-to-end benchmark and the servers it drives (cmd/matchserve,
# cmd/matchrouter) from the checkout this script lives in, then runs the
# benchmark with the given arguments. Run it from anywhere:
#
#   bash e2ebench/run.sh --workload serve-direct --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# binaries) stays under .bench_build/ in the checkout. A checkout without
# the repository's sources fails the build and exits non-zero before any
# result is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# With telemetry on (the default "local" mode), the first go command of the
# day forks a detached upload process that outlives this script. Turning it
# off in the private config directory above means no go command here starts
# one; "go telemetry off" itself never does.
go telemetry off

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit-dirty"
	fi
fi

go build -o "$out/bin/" ./cmd/matchserve ./cmd/matchrouter
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)

exec "$out/bin/e2ebench" -bin "$out/bin" -commit "$commit" "$@"
