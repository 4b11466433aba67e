# powermap — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet fmt test benchtest race check short bench benchmark fuzz tables verify clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lists every file gofmt would change, and fails if there is one.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The benchmark is its own module, so `go test ./...` skips its tests.
benchtest:
	cd benchmark && $(GO) test ./...

race:
	$(GO) test -race ./...

# The pre-merge gate, as CI runs it: compile, static analysis, formatting,
# full tests (the benchmark module's included), race tests.
check: build vet fmt test benchtest race

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The benchmark of record (benchmark/README.md): every workload once, with
# tracing off, so each prints its end-to-end metrics. The last line of each
# run is its JSON result; "correct": false there means an operation failed.
benchmark:
	for w in suite-dag suite-cuts serve-unique serve-repeat; do \
		bash benchmark/run.sh --workload $$w --trace 0 || exit 1; \
	done

# Brief fuzzing of the same ten targets as the CI fuzz job: the four
# parsers, the activity engines, curve pruning, NPN canonicalization, the
# mapped-BLIF decoder, the equivalence oracle and the journal reader (seed
# corpora run in plain `make test`).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/blif/
	$(GO) test -run='^$$' -fuzz='^FuzzParseCover$$' -fuzztime=20s ./internal/sop/
	$(GO) test -run='^$$' -fuzz='^FuzzParseExpr$$' -fuzztime=20s ./internal/genlib/
	$(GO) test -run='^$$' -fuzz='^FuzzParseGenlib$$' -fuzztime=20s ./internal/genlib/
	$(GO) test -run='^$$' -fuzz='^FuzzBitwiseVsScalar$$' -fuzztime=20s ./internal/sim/
	$(GO) test -run='^$$' -fuzz='^FuzzPrune$$' -fuzztime=20s ./internal/mapper/
	$(GO) test -run='^$$' -fuzz='^FuzzCanonical$$' -fuzztime=20s ./internal/npn/
	$(GO) test -run='^$$' -fuzz='^FuzzReadMappedBLIF$$' -fuzztime=20s ./internal/mapper/
	$(GO) test -run='^$$' -fuzz='^FuzzEquivalent$$' -fuzztime=20s ./internal/verify/equiv/
	$(GO) test -run='^$$' -fuzz='^FuzzReadRun$$' -fuzztime=20s ./internal/journal/

# Regenerate every table/figure of the paper (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/tables -table all

# The final artifacts requested by the reproduction protocol.
verify:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt
