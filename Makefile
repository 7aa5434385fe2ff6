GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 1x
BENCHOUT ?= BENCH_10.json

.PHONY: all build test check fmt vet lint race fuzz vuln bench cover perfbench-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## check is the CI gate: formatting, go vet, the domain lint suite,
## the full test suite under the race detector, short fuzz runs over
## every parser that consumes untrusted input, vet and tests of the
## nested benchmark module, and a known-vulnerability scan when the
## environment supports one.
check: fmt vet lint race fuzz perfbench-check vuln

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The domain analyzers: the syntactic tier (latlonbounds, angleunits,
# lockedmap, durationseconds, detclock), the flow-sensitive tier
# (nilfacade, exhaustenum, errflow), the interprocedural tier
# (detreach, privtaint, spawnleak, plus nilfacade's cross-function
# nilness), the concurrency tier (locksafe, chanowner, ctxflow) and the
# deadlock tier (lockorder, blockhold). Findings are cached per package
# under .lintcache, keyed by content fingerprints, so warm runs reload
# only what changed. Exit status 1 means findings.
lint:
	$(GO) run ./cmd/locwatchlint -cache-dir .lintcache ./...

race:
	$(GO) test -race ./...

# Statement coverage: the per-package summary is the `go test -cover`
# output itself, saved next to the merged profile. Informational (the
# CI coverage job uploads both without gating on a threshold);
# internal/obs is expected to stay ≥90%.
cover:
	$(GO) test -cover -covermode=atomic -coverprofile=coverage.out ./... | tee coverage-summary.txt
	$(GO) tool cover -func=coverage.out | tail -n 1

# Reproducible benchmark run: replays the root figure/ablation suite on
# a shared Quick-config Lab plus the call-graph/summary construction
# benchmarks, and refreshes the "after" column of the checked-in
# trajectory artifact, keeping its "before" baseline. Raise BENCHTIME
# (e.g. 5x) for lower-noise numbers; see DESIGN.md §7 for how to read
# BENCH_*.json.
bench:
	$(GO) run ./scripts/benchjson -benchtime $(BENCHTIME) -keep-before \
		-pkgs .,./internal/lint,./internal/lint/callgraph,./internal/lint/summary,./internal/stream \
		-out $(BENCHOUT)

# Ten-second fuzz passes over the four untrusted-input parsers:
# market page scraping, dumpsys battery output, PLT trace files, and
# the locwatchd ingest body. Ingest bodies are long, and minimizing
# every new input to its shortest form took nearly all of the ten
# seconds, so that pass caps minimization at 100 runs an input.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzExtractManifest -fuzztime $(FUZZTIME) ./internal/market
	$(GO) test -run '^$$' -fuzz FuzzParseDumpsys -fuzztime $(FUZZTIME) ./internal/android
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/trace/plt
	$(GO) test -run '^$$' -fuzz FuzzIngestBody -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/stream

# The benchmark lives in its own module (perfbench/go.mod, replacing
# locwatch with ../), which `go build ./...` and `go test ./...` stop
# short of. Vet and test it with the settings perfbench/run.sh uses,
# offline, so an API change it depends on fails here.
perfbench-check:
	GOFLAGS=-mod=mod GOPROXY=off $(GO) -C perfbench vet ./...
	GOFLAGS=-mod=mod GOPROXY=off $(GO) -C perfbench test ./...

# Known-vulnerability scan. govulncheck needs both its binary and the
# database at https://vuln.go.dev, so environments missing either skip
# with a notice instead of failing the gate (scripts/netprobe.go does
# the reachability check).
vuln:
	@if ! command -v govulncheck >/dev/null 2>&1; then \
		echo "vuln: SKIP: govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	elif ! $(GO) run ./scripts/netprobe.go; then \
		echo "vuln: SKIP: vulnerability database vuln.go.dev unreachable"; \
	else \
		govulncheck ./...; \
	fi
