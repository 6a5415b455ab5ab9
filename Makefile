# gbcr — Group-based Coordinated Checkpointing for MPI (ICPP 2007 reproduction)

GO ?= go

.PHONY: all check build fmt test vet lint lint-json race bench bench-json bench-smoke figures figures-txt examples cover loc clean

all: check

# Full gate: compile, formatting, vet, the project analyzers, tests, and the
# race detector over the concurrent experiment Runner.
check: build fmt vet lint test race

build:
	$(GO) build ./...

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# Project analyzers (simdeterminism, nopanic, errpropagation, unused),
# human-readable on stderr.
# gbcrlint loads the whole module from source, which is what lets unused
# see every caller. Exit status: 0 clean, 1 operational error, 2 findings.
lint:
	$(GO) build -o bin/gbcrlint ./cmd/gbcrlint
	./bin/gbcrlint ./...

# Same suite, but findings land in lint-findings.json as a JSON array
# (always valid JSON, [] when clean); the exit contract is unchanged, so
# this gates too. It is the form CI's check job runs and archives.
lint-json:
	$(GO) build -o bin/gbcrlint ./cmd/gbcrlint
	./bin/gbcrlint -json ./... > lint-findings.json

# The suite's live heap is tens of MB. GOMEMLIMIT is a soft limit, so a test
# that goes back to holding model bytes as host bytes (the sender-log table
# once retained 16 GB) collects continuously and crawls here, long before it
# is OOM-killed at whatever the machine happens to have.
test:
	GOMEMLIMIT=2GiB $(GO) test ./...

# The figure sweeps fan out on the Runner's worker pool; run the whole tree
# under the race detector. The figures package alone runs for several
# minutes under -race on small machines, so give the suite more than the
# default 10-minute per-package budget.
race:
	$(GO) test -race -timeout 30m ./...

# Regenerate every paper figure once as benchmarks.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Run every benchmark once and capture the results — wall ns/op plus the
# custom sim-time metrics — as machine-readable JSON. The committed results
# seed each metric's "prev" field, so the file carries its own trajectory.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... | $(GO) run ./cmd/benchjson -prev BENCH_results.json -o BENCH_results.json

# The repo benchmark (BENCHMARK.json) lives in bench/, a module of its own
# that ./... does not reach: vet it and run its self-tests (~3 s).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Print every figure/ablation/extension as text tables.
figures:
	$(GO) run ./cmd/figures

# Refresh the committed artifact. A phony target (not a file rule): the
# tables depend on the whole simulation stack, so "already up to date"
# would always be wrong.
figures-txt:
	$(GO) run ./cmd/figures > docs/figures.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/placement
	$(GO) run ./examples/restart
	$(GO) run ./examples/hpl
	$(GO) run ./examples/motifminer

cover:
	$(GO) test -cover ./internal/...

# Non-test, non-fixture Go lines per package tree under internal/ and cmd/
# (a sub-package counts toward its parent: internal/cr includes cr/protocol),
# then the analyzer fixtures. ROADMAP's code-diet items quote this table. The
# target fails (in CI too) when internal/{cr,analysis,mpi} together grow past
# 4,900 lines, or the analyzer suite (internal/analysis, its fixtures and
# cmd/gbcrlint) past 1,600.
loc:
	@fixtures=$$(find internal/analysis/testdata -name '*.go' -exec cat {} + | wc -l); \
	find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec wc -l {} + | \
		awk -v fx=$$fixtures '$$2 != "total" { split($$2, p, "/"); n[p[1] "/" p[2]] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
				diet = n["internal/cr"] + n["internal/analysis"] + n["internal/mpi"]; \
				suite = n["internal/analysis"] + fx + n["cmd/gbcrlint"]; \
				printf "%6d total\n%6d internal/{cr,analysis,mpi}, ceiling 4900\n", t, diet; \
				printf "%6d internal/analysis/testdata (fixtures)\n", fx; \
				printf "%6d internal/analysis + fixtures + cmd/gbcrlint, ceiling 1600\n", suite; \
				exit diet > 4900 || suite > 1600 }'

clean:
	$(GO) clean ./...
	rm -rf bin
