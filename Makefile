# Build, vet, test, and race-check the reproduction.
#
#   make check   — everything below in sequence (the tier-1 gate + races)
#   make vet     — go vet, and fail on any tracked Go file gofmt would change
#   make race    — race-detector pass over the concurrency-bearing packages
#   make fuzz    — short native-fuzzing pass over the crash-safety targets
#   make benchsmoke — one-iteration find benchmark + obs overhead gate
#   make cover   — coverage floors for internal/{core,obs,sched,trace,ddg}
#   make perfbench-check — vet and test the benchmark module (perfbench/
#                  is its own Go module, so `go test ./...` skips it)
#   make serversmoke — end-to-end daemon check: cold run, warm store hit
#   make chaos   — fault-injection suite + chaos smoke against the binary
#
# The repo benchmark is `bash perfbench/run.sh`; its workloads and metrics
# are declared in BENCHMARK.json.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet test race fuzz benchsmoke cover perfbench-check serversmoke chaos

check: build vet test race

build:
	$(GO) build ./...

# gofmt runs over the tracked files only, so the benchmark's build cache
# (.bench_build/) is never scanned; any file it lists fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/trace/... ./internal/ddg/... ./internal/vm/... ./internal/pagetab/... ./internal/patterns/... ./internal/core/... ./internal/sched/... ./internal/obs/... ./internal/server/... ./internal/store/... ./internal/fault/...

# Each target runs for FUZZTIME; Go's fuzzer accepts one -fuzz pattern per
# package invocation, so the targets run in sequence.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMIRValidate$$' -fuzztime $(FUZZTIME) ./internal/mir
	$(GO) test -run '^$$' -fuzz '^FuzzVM$$' -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run '^$$' -fuzz '^FuzzSolver$$' -fuzztime $(FUZZTIME) ./internal/cp
	$(GO) test -run '^$$' -fuzz '^FuzzFinalize$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzPrescreen$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzPrescreenDiff$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzPagedCSR$$' -fuzztime $(FUZZTIME) ./internal/ddg
	$(GO) test -run '^$$' -fuzz '^FuzzOverlayRank$$' -fuzztime $(FUZZTIME) ./internal/ddg

# One timed iteration of the find fixpoint benchmark: catches bit-rot in
# the benchmark itself without the cost of a real measurement run. The
# second command checks that the prescreen skip-rate counter is exported
# under its canonical name (internal/obs/names.go). The third runs the
# disabled-observability overhead gate: the find fixpoint with the no-op
# recorder must stay within 2% of running with no recorder at all (the
# zero-cost-when-disabled contract, DESIGN.md §12).
benchsmoke:
	$(GO) test -run '^$$' -bench '^BenchmarkFindFixpoint$$' -benchtime=1x .
	$(GO) test -run '^TestPrescreenSkipRateExported$$' -count=1 .
	OBS_OVERHEAD=1 $(GO) test -run '^TestNopRecorderOverhead$$' .

# The repo benchmark lives in its own module (perfbench/go.mod, replacing
# discovery with ../), so the root `go test ./...` never compiles it; this
# catches an API change to the packages it drives before the benchmark does.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Build and drive the real daemon binary: cold run computes and stores,
# the identical resubmission must be a store hit with zero solver runs.
serversmoke:
	sh scripts/serversmoke.sh

# The chaos harness: resilience and fault-injection unit suites under the
# race detector, the scripted-plan chaos tests over the serving stack,
# then the smoke script driving the real binary through a crash-recovery
# restart and a scripted store outage.
chaos:
	$(GO) test -race -count=1 ./internal/fault/ ./internal/store/
	$(GO) test -race -count=1 -run Chaos ./internal/server/
	sh scripts/chaossmoke.sh

# Coverage floors. The thresholds sit a few points under the levels the
# suite reaches at the time of writing (core 95%, obs 92%, sched 94%,
# trace 93%, ddg 92%), so real regressions fail while test-order jitter
# does not.
cover:
	@mkdir -p .cover
	$(GO) test -coverprofile=.cover/core.out ./internal/core/
	$(GO) test -coverprofile=.cover/obs.out ./internal/obs/
	$(GO) test -coverprofile=.cover/sched.out ./internal/sched/
	$(GO) test -coverprofile=.cover/trace.out ./internal/trace/
	$(GO) test -coverprofile=.cover/ddg.out ./internal/ddg/
	@for spec in core:90 obs:88 sched:90 trace:88 ddg:90; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) tool cover -func=.cover/$$pkg.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		echo "internal/$$pkg coverage: $$pct% (floor $$floor%)"; \
		if [ "$$(echo "$$pct $$floor" | awk '{ print ($$1 >= $$2) }')" != 1 ]; then \
			echo "coverage regression in internal/$$pkg: $$pct% < $$floor%"; exit 1; \
		fi; \
	done
