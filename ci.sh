#!/bin/sh
# The repository's check gauntlet. Run before every push:
#
#   ./ci.sh           # build, vet, race-enabled tests, fuzz smoke
#   ./ci.sh -short    # same, but tests run with -short
#
# CONFANON_SKIP_FUZZ=1 skips the fuzz smoke (e.g. on very slow machines).
#
# The golden corpus under testdata/golden/ makes the test step a
# byte-level regression check on the anonymizer's (salt, input) → output
# contract, so a green run also means no mapping drift.
set -eu
cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go vet ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack && go test -race ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack"
go vet ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack
go test -race ./internal/metrics ./internal/trace ./internal/store ./internal/rulepack

# Concurrency gauntlet: the packages whose correctness depends on the
# Program/Session split's locking — the shaped tree's two-phase design,
# the session worker pool and rewrite memo, the portal's per-salt
# sessions, the mapping ledger's append/commit serialization, and the
# job queue's worker pool — run twice under the race detector so
# scheduling varies. The chaos pass includes the restart-mid-job test:
# the portal is killed on both sides of a ledger commit and must resume
# to byte-identical output.
echo "== concurrency gauntlet: go test -race -count=2 (ipanon, anonymizer, store, jobs, portal, bench, parallel batch, metrics)"
go test -race -count=2 ./internal/ipanon ./internal/anonymizer ./internal/store ./internal/jobs ./internal/portal ./internal/bench
go test -race -count=2 -run 'Parallel|Chaos|Session|Trace|Store|Incremental|Equivalence|Metrics|Scrape' .
go test -race -count=2 -run 'Jobs|Queue|Chaos|Readyz|Drain' ./internal/jobs ./internal/portal

# perfbench is its own module (it builds the real binaries and reads
# their run reports, traces and /metrics bodies), so the root
# `go test ./...` skips it; a facade change to Options.Metrics,
# MetricsRegistry or Counters() must still keep the harness compiling
# and its reader tests green. The build output is discarded so nothing
# lands in the harness directory.
echo "== perfbench module: go build, go vet, go test"
(cd perfbench && go build -o /dev/null ./... && go vet ./... && go test ./...)

echo "== go test -race -cover ./... $*"
go test -race -coverprofile=coverage.out "$@" ./...

# Coverage ratchet: the total statement coverage must not fall below
# coverage_baseline.txt (set slightly under the measured total to absorb
# noise). Raise the baseline when coverage meaningfully improves; never
# lower it to make a red run green.
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub("%","",$NF); print $NF}')
floor=$(cat coverage_baseline.txt)
echo "== coverage ratchet: total ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
	echo "coverage ${total}% fell below the ${floor}% floor" >&2
	exit 1
}

# Observability drift gate (warn-only): re-run the golden corpus, emit a
# run report, and diff it against the checked-in baseline with conftrace.
# Rule-hit or outcome drift means the (salt, input) → decision contract
# moved — investigate before pushing; stage-latency drift is machine
# noise. The step warns but never fails the build (-fail-on-drift off);
# regenerate the baseline together with the golden outputs when a rule
# change is intentional:
#   go run ./cmd/confanon -salt golden-v1 -in testdata/golden/in \
#     -out /tmp/out -metrics-out testdata/baseline_report.json -leak-report=false
echo "== conftrace drift check vs testdata/baseline_report.json (warn-only)"
driftdir=$(mktemp -d)
go run ./cmd/confanon -salt golden-v1 -in testdata/golden/in \
	-out "$driftdir/out" -metrics-out "$driftdir/report.json" -leak-report=false >/dev/null
go run ./cmd/conftrace testdata/baseline_report.json "$driftdir/report.json"
rm -rf "$driftdir"

# Privacy/utility bench gate (hard-fail): run the benchmark harness over
# the small committed corpus shape and diff the scores against
# testdata/baseline_bench.json. Every score is deterministic in the
# seed, so any drift here is a real behavior change: privacy scores
# worsening (re-identification, fingerprint survival, identity leaks
# rising) or utility scores dropping (design equivalence, clean
# characteristics) beyond 1pp fails the build. Throughput is machine
# noise and only reported. Regenerate the baseline when a score change
# is intentional and understood:
#   go run ./cmd/confbench -seed 1 -routers 60 -networks 4 \
#     -out testdata/baseline_bench.json
echo "== confbench privacy/utility gate vs testdata/baseline_bench.json (hard-fail on drift)"
benchdir=$(mktemp -d)
go run ./cmd/confbench -seed 1 -routers 60 -networks 4 -q -out "$benchdir/bench.json"
go run ./cmd/conftrace -fail-on-drift testdata/baseline_bench.json "$benchdir/bench.json"
rm -rf "$benchdir"

# Rule-pack gate: every shipped example pack must parse, pass the
# document checks, and merge against this build's built-in inventory.
# The examples pin their fingerprints, so any edit to a pack without
# re-pinning — or any canonical-encoding change that silently moves
# every fingerprint (and with it the bench policy fingerprints) — fails
# here as a declared-fingerprint mismatch.
echo "== confvalidate -check-pack examples/rulepacks/*"
packargs=""
for p in examples/rulepacks/*.json examples/rulepacks/*.toml; do
	packargs="$packargs -check-pack $p"
done
# shellcheck disable=SC2086
go run ./cmd/confvalidate $packargs

# Short coverage-guided fuzz pass over the parsers that sit in front of
# the anonymizer. Crashers are persisted under testdata/fuzz/ and then
# replayed by the ordinary test step above, so a find here becomes a
# permanent regression test.
if [ "${CONFANON_SKIP_FUZZ:-0}" != "1" ]; then
	echo "== fuzz smoke: internal/config FuzzParse (10s)"
	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/config
	echo "== fuzz smoke: internal/cregex FuzzParsePattern (10s)"
	go test -run '^$' -fuzz '^FuzzParsePattern$' -fuzztime 10s ./internal/cregex
fi

echo "== ok"
