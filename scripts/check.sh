#!/bin/sh
# The repository gate: gofmt, vet, ispy-vet (the repo's determinism &
# invariant analyzer), the injected-regression vet smoke (grafted
# stale-key and impure-response regressions must fail the analyzer),
# build, race-enabled tests, a short fuzz pass over the
# trace decoders, a CLI-level fault-injection smoke, the ispyd chaos soak
# (graceful degradation under injected faults), the multi-tenant scenario
# smoke, and the repository benchmark's toy-scale self-test (bench/ is its
# own module, so `go test ./...` above skips it). `make check` runs the same
# steps; this script exists for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -l flagged:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== ispy-vet -strict ./..."
go run ./cmd/ispy-vet -strict ./...
echo "== ispy-vet -json smoke"
go run ./cmd/ispy-vet -json ./... > /dev/null
echo "== vet smoke (injected keysound/purity regressions must fail the gate)"
go test -run 'TestInjectedRegressions/(keysound|purity)' ./internal/vetting
echo "== go build ./..."
go build ./...
echo "== go test -race ./..."
go test -race ./...
echo "== fuzz smoke (decoders, 5s)"
go test -run=NONE -fuzz=FuzzDecode -fuzztime=5s ./internal/traceio
echo "== fault-injection smoke (must exit 1, not crash)"
set +e
go run ./cmd/ispy -apps tomcat -instrs 120000 \
    -faults 'compute/base/*=panic' run fig1 >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "fault-injection smoke: exit code $rc, want 1" >&2
    exit 1
fi
echo "== server chaos smoke (ispyd soak must exit 0)"
go run ./cmd/ispyd soak -apps wordpress -workers 2 -requests 3 \
    -instrs 60000 -fault-seed 20260807 >/dev/null 2>&1 || {
    echo "server chaos smoke: soak reported an invariant violation" >&2
    exit 1
}
echo "== scenario smoke (multi-tenant traffic through ispy and ispyd)"
SCENARIO='name=smoke;seed=11;requests=160;arrival=gamma:0.7;day=0.6,1.4;zipf=0.8;tenants=wordpress:slo=interactive,tomcat:slo=batch'
go run ./cmd/ispy -instrs 120000 -scenario "$SCENARIO" >/dev/null 2>&1 || {
    echo "scenario smoke: ispy -scenario failed" >&2
    exit 1
}
go run ./cmd/ispyd soak -apps wordpress -workers 2 -requests 2 \
    -instrs 60000 -fault-seed 20260807 -scenario "$SCENARIO" >/dev/null 2>&1 || {
    echo "scenario smoke: ispyd soak with -scenario failed" >&2
    exit 1
}
echo "== benchmark self-test (bench/ at toy scale)"
go -C bench test ./...
echo "== all checks passed"
