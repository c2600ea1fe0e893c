#!/usr/bin/env bash
# The performance gate: runs the end-to-end benchmark that BENCHMARK.json
# declares on two commits, in alternating pairs, and fails when the second
# commit answers wrongly, fails a larger share of its operations, or
# regresses an end-to-end metric beyond its bound.
#
#   bash .github/perf-gate.sh BASE CHANGE
#
# BASE and CHANGE are commits of this repository. Each is checked out into
# a detached git worktree under .bench_build/perf-gate/ and built there
# (cmd/matchserve, cmd/matchrouter and e2ebench, with e2ebench/run.sh's
# build settings). Both sides' binaries then run from the repository root,
# so the working directory cannot favour one side. The results land in
# .bench_build/perf-gate/: base.jsonl, change.jsonl and diff.txt, the
# output of `e2ebench diff`.
#
# The gate skips, exiting 0, when BASE is empty, all zeros or not a commit
# here, and when the two commits differ under e2ebench/ or in
# BENCHMARK.json: such a change alters the measuring code, and the gate
# only compares programs measured by one benchmark.
#
# Rows that e2ebench diff marks unresolved (the base's own spread wider
# than the metric's bound) do not fail the gate; each is printed as a
# ::warning:: line, and the last line counts them.
#
# Exit status: 0 when the change passes or the gate skips, 1 when it
# fails, 2 on a usage error.
set -euo pipefail

# The run settings are fixed: every gate measures the same thing.
readonly pairs=5 seconds=3

if [ "$#" -ne 2 ]; then
	echo "usage: bash .github/perf-gate.sh BASE CHANGE" >&2
	exit 2
fi

root="$(git rev-parse --show-toplevel)"
cd "$root"

if [ -z "$1" ] || [ -z "${1//0/}" ] || ! git cat-file -e "$1^{commit}" 2>/dev/null; then
	echo "perf-gate: skipped: no base commit to compare with (BASE is '$1')"
	exit 0
fi
if ! change="$(git rev-parse --verify --quiet "$2^{commit}")"; then
	echo "perf-gate: CHANGE '$2' is not a commit" >&2
	exit 2
fi
base="$(git rev-parse "$1^{commit}")"
if ! git diff --quiet "$base" "$change" -- e2ebench BENCHMARK.json; then
	echo "perf-gate: skipped: $change changes e2ebench/ or BENCHMARK.json, so its runs are not comparable with $base's"
	exit 0
fi

work="$root/.bench_build/perf-gate"
cleanup() {
	for side in base change; do
		git worktree remove --force "$work/$side" 2>/dev/null || true
	done
	git worktree prune
}
cleanup
rm -rf "$work"
mkdir -p "$work/tmp" "$work/logs"
trap cleanup EXIT

# e2ebench/run.sh's build settings: every file the toolchain writes stays
# under the work directory, and no go command reaches the network or forks
# a telemetry upload.
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath" \
	GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go telemetry off

declare -A sha=([base]="$base" [change]="$change")
for side in base change; do
	git worktree add --quiet --detach "$work/$side" "${sha[$side]}"
	(
		cd "$work/$side"
		go build -o "$work/bin-$side/" ./cmd/matchserve ./cmd/matchrouter
		cd e2ebench
		go build -o "$work/bin-$side/e2ebench" .
	)
	echo "perf-gate: built $side ${sha[$side]}"
done

# Alternating pairs: the base runs first in odd pairs, the change in even
# ones. e2ebench diff pairs the two files' runs in file order.
for ((i = 1; i <= pairs; i++)); do
	order="base change"
	if ((i % 2 == 0)); then
		order="change base"
	fi
	for side in $order; do
		log="$work/logs/$side-seed$i.txt"
		if ! "$work/bin-$side/e2ebench" -bin "$work/bin-$side" -commit "${sha[$side]}" \
			-workload all -seed "$i" -seconds "$seconds" -trace 0 -out "$work/$side.jsonl" >"$log"; then
			echo "perf-gate: FAIL: the $side run with seed $i exited non-zero; its output:" >&2
			cat "$log" >&2
			exit 1
		fi
		echo "perf-gate: pair $i: $side: $(tail -n 1 "$log" | cut -c1-64)…"
	done
done

# Failed operations over attempted ones, summed over a side's runs.
failures() {
	jq -rs '[.[] | .result | select(.)] | "\(map(.failed) | add) \(map(.attempted) | add)"' "$1"
}
read -r base_failed base_attempted <<<"$(failures "$work/base.jsonl")"
read -r change_failed change_attempted <<<"$(failures "$work/change.jsonl")"
echo "perf-gate: failed ops: base $base_failed of $base_attempted, change $change_failed of $change_attempted"
status=0
if ((change_failed * base_attempted > base_failed * change_attempted)); then
	echo "perf-gate: FAIL: the change fails a larger share of its operations than the base" >&2
	status=1
fi

if ! "$work/bin-change/e2ebench" diff --bench "$work/change/BENCHMARK.json" \
	"$work/base.jsonl" "$work/change.jsonl" >"$work/diff.txt"; then
	status=1
fi
cat "$work/diff.txt"
# A row is unresolved when the base's own spread is wider than the metric's
# bound: the gate cannot judge it, so it passes it, but says so.
unresolved=0
while read -r workload metric; do
	echo "::warning::perf-gate: unresolved: $workload $metric"
	unresolved=$((unresolved + 1))
done < <(awk '$NF == "unresolved" { print $1, $2 }' "$work/diff.txt")
if ((status != 0)); then
	echo "perf-gate: FAIL after ${SECONDS}s, $unresolved rows unresolved (see .bench_build/perf-gate/diff.txt)" >&2
	exit 1
fi
echo "perf-gate: pass after ${SECONDS}s, $unresolved rows unresolved"
