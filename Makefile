# powermap — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet test race check short bench benchmark fuzz tables verify clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pre-merge gate: compile, static analysis, full tests, race tests.
check: build vet test race

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

# Brief fuzzing of the same nine targets as the CI fuzz job: the four
# parsers, the activity engines, curve pruning, NPN canonicalization, the
# mapped-BLIF decoder and the equivalence oracle (seed corpora run in plain
# `make test`).
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

# Regenerate every table/figure of the paper (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/tables -table all

# The final artifacts requested by the reproduction protocol.
verify:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt
