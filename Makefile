# powermap — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet test race check short bench benchcheck fuzz tables verify clean

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

# The pipeline regression gate: rerun the pbench workload and fail on any
# phase slower than the committed BENCH_pipeline.json baseline beyond the
# threshold. Regenerate the baseline by committing the rewritten manifest.
benchcheck:
	$(GO) run ./cmd/pbench -runs 3 -quick -workers 1 -out BENCH_pipeline.json

# Brief fuzzing of the same eight targets as the CI fuzz job: the four
# parsers, the activity engines, curve pruning, NPN canonicalization and
# the equivalence oracle (seed corpora run in plain `make test`).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/blif/
	$(GO) test -run='^$$' -fuzz='^FuzzParseCover$$' -fuzztime=20s ./internal/sop/
	$(GO) test -run='^$$' -fuzz='^FuzzParseExpr$$' -fuzztime=20s ./internal/genlib/
	$(GO) test -run='^$$' -fuzz='^FuzzParseGenlib$$' -fuzztime=20s ./internal/genlib/
	$(GO) test -run='^$$' -fuzz='^FuzzBitwiseVsScalar$$' -fuzztime=20s ./internal/sim/
	$(GO) test -run='^$$' -fuzz='^FuzzPrune$$' -fuzztime=20s ./internal/mapper/
	$(GO) test -run='^$$' -fuzz='^FuzzCanonical$$' -fuzztime=20s ./internal/npn/
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
