GO ?= go

.PHONY: check fmtcheck vet ispyvet vetsmoke vet-waivers build test race fuzz faultsmoke chaossmoke scenariosmoke warmsmoke resultsmoke benchtest benchall

# The full gate: what CI (and every PR) must pass.
check: fmtcheck vet ispyvet vetsmoke build race fuzz faultsmoke chaossmoke scenariosmoke warmsmoke resultsmoke benchtest

# gofmt enforcement: fails listing any file that needs formatting.
fmtcheck:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l flagged:"; echo "$$unformatted"; exit 1; fi
	@echo "fmtcheck: ok"

# bench/ is its own module, so the root `go vet ./...` never enters it.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# The repo's own determinism & invariant analyzer (see DESIGN.md §10).
# Strict mode: stale waivers fail the gate. The -json invocation is a
# smoke test for the machine-readable output tooling depends on.
ispyvet:
	$(GO) run ./cmd/ispy-vet -strict ./...
	@$(GO) run ./cmd/ispy-vet -json ./... > /dev/null 2>&1 || \
		{ echo "ispyvet: -json smoke failed"; exit 1; }
	@echo "ispyvet: -json smoke ok"

# End-to-end proof that the analyzer gate bites: graft the canonical
# impure-response regression (a time.Now() folded into an analyze response)
# onto a pristine module copy and require `ispy-vet -strict` to fail it with
# the purity pass. The stale-key regression (a config field the key never
# folds) is a tier-1 test now: TestKeyMaterialCoversEveryField in
# internal/artifacts.
vetsmoke:
	$(GO) test -run 'TestInjectedRegressions/purity' ./internal/vetting

# List every //ispy: waiver in effect, for periodic review.
vet-waivers:
	$(GO) run ./cmd/ispy-vet -waivers ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short continuous-fuzzing passes over the trace decoders, over the
# artifact-cache container parser (it reads whatever a cache file holds),
# over context discovery and context labeling by replay against their
# references, and over the cache (Resets included) against its frozen
# reference; regressions land in the package's testdata/fuzz and replay as
# ordinary tests forever after.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=5s ./internal/traceio
	$(GO) test -run=NONE -fuzz=FuzzParseEntry -fuzztime=5s ./internal/artifacts
	$(GO) test -run=NONE -fuzz=FuzzDiscoverContext -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzLabelReplay -fuzztime=5s ./internal/profile
	$(GO) test -run=NONE -fuzz=FuzzRefCacheEquivalence -fuzztime=5s ./internal/cache

# End-to-end fault-injection smoke: an injected panic must degrade the run
# (exit 1 with a report), not crash it.
faultsmoke:
	@$(GO) run ./cmd/ispy -apps tomcat -instrs 120000 \
		-faults 'compute/base/*=panic' run fig1 >/dev/null 2>&1; \
	rc=$$?; if [ $$rc -ne 1 ]; then \
		echo "faultsmoke: exit code $$rc, want 1"; exit 1; fi
	@echo "faultsmoke: ok (exit 1 with contained failure)"

# Server chaos smoke: the ispyd soak must hold every graceful-degradation
# invariant (canonical or structured responses, no partial cache writes,
# clean drain) under injected corruption, torn writes, and panics (exit 0;
# see DESIGN.md §12). On failure it prints the soak's violation lines (or,
# if there are none, the end of its output).
chaossmoke:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/ispyd soak -apps wordpress -workers 2 -requests 3 \
		-instrs 60000 -fault-seed 20260807 > "$$out" 2>&1 || \
		{ echo "chaossmoke: soak reported an invariant violation:"; \
		grep "^soak: violation:" "$$out" || tail -n 20 "$$out"; exit 1; }
	@echo "chaossmoke: ok (all graceful-degradation invariants held)"

# Multi-tenant scenario smoke: a bursty two-tenant scenario must run clean
# through the batch CLI and through the ispyd soak's scenario target (the
# spec grammar is docs/WORKLOADS.md; determinism is pinned by golden tests).
SCENARIO := name=smoke;seed=11;requests=160;arrival=gamma:0.7;day=0.6,1.4;zipf=0.8;tenants=wordpress:slo=interactive,tomcat:slo=batch
scenariosmoke:
	@$(GO) run ./cmd/ispy -instrs 120000 -scenario '$(SCENARIO)' >/dev/null 2>&1 || \
		{ echo "scenariosmoke: ispy -scenario failed"; exit 1; }
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/ispyd soak -apps wordpress -workers 2 -requests 2 \
		-instrs 60000 -fault-seed 20260807 -scenario '$(SCENARIO)' > "$$out" 2>&1 || \
		{ echo "scenariosmoke: ispyd soak with -scenario failed:"; \
		grep "^soak: violation:" "$$out" || tail -n 20 "$$out"; exit 1; }
	@echo "scenariosmoke: ok (CLI scenario + soak scenario target both clean)"

# Warm-cache smoke: rerun over the artifact cache a cold `ispy -quick all`
# filled must print the same stdout (wall times aside) from hits alone: the
# -v telemetry's total row must show no miss and nothing computed. A second
# cold pass at -jobs 1, where experiments and their cells run one after
# another, into a fresh cache must print the default cold pass's stdout and
# write byte-identical entries.
warmsmoke:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/ispy" ./cmd/ispy && \
	"$$d/ispy" -quick -apps tomcat -cache-dir "$$d/cache" all > "$$d/cold" 2>/dev/null && \
	"$$d/ispy" -quick -apps tomcat -jobs 1 -cache-dir "$$d/seqcache" all > "$$d/seq" 2>/dev/null && \
	"$$d/ispy" -quick -apps tomcat -cache-dir "$$d/cache" -v all > "$$d/warm" 2> "$$d/warm.err" || \
		{ echo "warmsmoke: ispy failed"; exit 1; }; \
	grep -v "completed in" "$$d/cold" > "$$d/cold.out"; grep -v "completed in" "$$d/warm" > "$$d/warm.out"; \
	grep -v "completed in" "$$d/seq" > "$$d/seq.out"; \
	cmp -s "$$d/cold.out" "$$d/seq.out" || { echo "warmsmoke: -jobs 1 cold stdout differs from the default's"; exit 1; }; \
	diff -r "$$d/cache" "$$d/seqcache" > /dev/null || { echo "warmsmoke: -jobs 1 cold entries differ from the default's"; exit 1; }; \
	cmp -s "$$d/cold.out" "$$d/warm.out" || { echo "warmsmoke: warm stdout differs from cold"; exit 1; }; \
	awk '$$1 == "total" { n++; if ($$3 != 0 || $$6 != 0) bad = 1 } END { exit !(n == 1 && !bad) }' "$$d/warm.err" || \
		{ echo "warmsmoke: the warm run missed or computed:"; grep "^total" "$$d/warm.err"; exit 1; }
	@echo "warmsmoke: ok (-jobs 1 cold pass: same stdout and entries; warm rerun: same stdout, hits only)"

# Recorded-results smoke: `ispy all` at the default budget must print
# results_all.txt, the `[… completed in …]` wall-time lines aside. The
# recording holds on amd64 only: gc fuses multiply-adds on arm64, ppc64le,
# s390x and riscv64, which can move a discovered context's precision by
# one ulp (ROADMAP, "Bit-identical on every architecture"). CI runs amd64.
resultsmoke:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/ispy" ./cmd/ispy && \
	"$$d/ispy" all > "$$d/out" 2>/dev/null || { echo "resultsmoke: ispy all failed"; exit 1; }; \
	grep -v "completed in" "$$d/out" > "$$d/got"; grep -v "completed in" results_all.txt > "$$d/want"; \
	cmp -s "$$d/want" "$$d/got" || { echo "resultsmoke: ispy all stdout differs from results_all.txt:"; \
		diff "$$d/want" "$$d/got" | head -n 20; exit 1; }
	@echo "resultsmoke: ok (ispy all stdout equals results_all.txt)"

# The repository benchmark's self-test: bench/ is its own module, so the
# root `go test ./...` never runs it. It drives every workload and the traced
# run at toy scale, offline, writing only to a temp dir (see bench/README.md).
benchtest:
	$(GO) -C bench test ./...

# The full benchmark suite (per-figure regeneration + ablations).
benchall:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

