# Development targets. `make verify` is the pre-commit gate: formatting,
# vet, build, the full test suite under the race detector, a
# single-iteration benchmark smoke run so the perf harness can't rot, the
# meclint static-analysis suite (which includes the repolint doc and link
# checks — see docs/LINTING.md), staticcheck when fetchable, a mecstat
# smoke over its committed fixtures, a mecd service smoke that boots
# the daemon on a loopback port and drives one arrival/assign/departure
# cycle through the live HTTP API, a short fuzz of the scenario decoder,
# and the benchmark harness self-tests.

GO ?= go

# Pinned so CI and local runs agree; bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: verify build test vet fmt-check race bench bench-go bench-smoke bench-obs lint staticcheck doc-check link-check mecstat-smoke mecd-smoke workload-checks bench-selftest fuzz-smoke

verify: fmt-check vet build race bench-smoke lint staticcheck mecstat-smoke mecd-smoke workload-checks fuzz-smoke bench-selftest

# The full go vet analyzer set, spelled out so the suite only changes
# when this list does — a toolchain upgrade cannot silently drop a check.
VET_ANALYZERS = appends asmdecl assign atomic bools buildtag cgocall \
	composites copylocks defers directive errorsas framepointer \
	httpresponse ifaceassert loopclosure lostcancel nilfunc printf shift \
	sigchanyzer slog stdmethods stdversion stringintconv structtag \
	testinggoroutine tests timeformat unmarshal unreachable unsafeptr \
	unusedresult

vet:
	$(GO) vet $(foreach a,$(VET_ANALYZERS),-$(a)) ./...

# The repo's own analyzers (determinism, nilsafe, floatcmp, exitcode)
# plus the docs and links repo checks. See docs/LINTING.md.
lint:
	$(GO) run ./cmd/meclint

# Pinned staticcheck via `go run`, so nothing is installed globally.
# Skips with a notice when the module cannot be fetched (offline
# sandboxes). CI sets STRICT=1, which turns an unfetchable staticcheck
# into a hard failure instead of a silent skip.
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	elif [ -n "$(STRICT)" ]; then \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable and STRICT is set"; exit 1; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping"; fi

# Fail when any file is not gofmt-clean; print the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Record the performance baseline into BENCH_lphta.json (see
# docs/PERFORMANCE.md). bench-go runs the raw testing.B suite instead.
bench:
	$(GO) run ./cmd/mecperf -out BENCH_lphta.json

bench-go:
	$(GO) test -run xxx -bench . -benchmem ./...

# One iteration of every benchmark: catches bitrot without the cost of a
# real measurement run. The second step is the large-scenario memory
# gate: a 100k-device scenario generated, streamed to JSON, and
# stream-decoded under a pinned B/op budget (see
# internal/scenarioio/largescale_test.go).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
	MEC_LARGE_SMOKE=1 $(GO) test -run TestLargeScenarioMemoryBudget ./internal/scenarioio/

# Every internal/ package must keep its package comment in a doc.go.
doc-check:
	$(GO) run ./cmd/repolint -doc

# Every relative markdown link in *.md and docs/*.md must resolve.
link-check:
	$(GO) run ./cmd/repolint -links

# Observability overhead check: disabled vs metrics-enabled pipelines.
# Every observability benchmark carries the BenchmarkObs prefix, so the
# filter never needs updating when one is added or renamed.
bench-obs:
	$(GO) test -run xxx -bench BenchmarkObs -benchmem ./...

# The ci-smoke machine class of the workload-checks corpus: every case
# through the full generate → LP-HTA → simulate pipeline, gated on its
# budgets.json. `go run ./cmd/mecwc` (no -class) runs every class.
workload-checks:
	$(GO) run ./cmd/mecwc -class ci-smoke

# mecstat must keep reading its own committed fixtures and gating clean
# on an identical pair; a regressed pair must trip the gate.
mecstat-smoke:
	$(GO) run ./cmd/mecstat -threshold 0.1 cmd/mecstat/testdata/base.json cmd/mecstat/testdata/base.json > /dev/null
	@if $(GO) run ./cmd/mecstat -threshold 0.2 cmd/mecstat/testdata/base.json cmd/mecstat/testdata/regressed.json > /dev/null 2>&1; then \
		echo "mecstat failed to flag the regressed fixture"; exit 1; fi

# The online assignment service must boot, accept an arrival over HTTP,
# assign it, survive its departure, and expose its counters on /metrics
# (see docs/SERVICE.md). -selfcheck picks a random loopback port.
mecd-smoke:
	$(GO) run ./cmd/mecd -selfcheck -preload 25 -log-level off > /dev/null

# Five seconds of coverage-guided fuzzing of the scenario decoder, seeded
# with its golden documents (internal/scenarioio/fuzz_test.go). Inputs
# that failed before stay under testdata/fuzz/ and run in every `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 5s ./internal/scenarioio/

# The benchmark harness (benchmark/, see BENCHMARK.json) is its own module,
# outside `go build ./...`; its self-tests are what catch a core or lp API
# change that breaks it.
bench-selftest:
	cd benchmark && $(GO) test ./...
