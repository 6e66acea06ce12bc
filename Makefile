GO ?= go

.PHONY: build fmt vet lint lint-json test race verify bench bench-json bench-save bench-drift recover-smoke

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint:
	sh scripts/lint.sh

lint-json:
	$(GO) run ./cmd/roglint -json ./...

test:
	$(GO) test ./...

race:
	sh scripts/verify.sh race

recover-smoke:
	sh scripts/verify.sh recover-smoke

verify:
	sh scripts/verify.sh

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

bench-json:
	$(GO) run ./cmd/rogbench -exp fig1 -json BENCH_fig1.json
	$(GO) run ./cmd/rogbench -exp churn -json BENCH_churn.json

# bench-save snapshots one experiment's -json report into the first free
# BENCH_<n>.json; bench-drift (the last stage of scripts/verify.sh) reruns
# every snapshot's experiment and fails on any drift.
BENCH_EXP ?= fleet
bench-save:
	n=1; while [ -e "BENCH_$$n.json" ]; do n=$$((n+1)); done; \
	$(GO) run ./cmd/rogbench -exp $(BENCH_EXP) -json "BENCH_$$n.json"

bench-drift:
	sh scripts/verify.sh bench-drift
