# Convenience targets for the usual development loop. Everything is
# stdlib-only Go; no target needs the network.

GO ?= go
BIN := bin

.PHONY: all build vet test test-race bench bench-vm bench-compare fuzz audit serve-smoke inline check clean

all: check

build:
	$(GO) build ./...

# Harness binaries, built once so measured invocations never pay (or time)
# the compiler. `go run` inside a benchmark target folds compile time into
# the first measurement and defeats the build cache across labels.
$(BIN)/r2cbench $(BIN)/r2cattack $(BIN)/r2caudit $(BIN)/r2cserve: force
	$(GO) build -o $(BIN)/ ./cmd/r2cbench ./cmd/r2cattack ./cmd/r2caudit ./cmd/r2cserve

.PHONY: force
force:

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Concurrently-updated state lives in the telemetry registry, the exec
# engine (worker pool + build cache + incident log, which attack scenarios
# share across pool workers), the fleet's heal goroutines and the process
# snapshots every fork shares (mem, heap, rt), and every build reads the
# one booby-trap body codegen shares (codegen, image); their tests — and the
# bench drivers that fan cells through them — run under the race detector.
# RACE_PKGS is the list `make check` races too.
RACE_PKGS = ./internal/exec/ ./internal/attack/ ./internal/telemetry/ ./internal/vm/ ./internal/pcode/ ./internal/incident/ ./internal/fleet/ ./internal/mvee/ ./internal/harness/ ./internal/mem/ ./internal/heap/ ./internal/rt/ ./internal/codegen/ ./internal/image/
test-race:
	$(GO) test -race -timeout 300s $(RACE_PKGS) ./internal/sim/ ./internal/bench/

# Go micro-benchmarks plus one real harness run per label, each refreshing
# the committed BENCH_<label>.json baseline (geomean overheads, detection
# rates, cycle totals, provenance). Re-run after an intentional change to a
# modeled number and commit the diff; `make bench-compare` judges a working
# tree against the committed files.
bench: $(BIN)/r2cbench $(BIN)/r2cattack
	$(GO) test -bench=. -benchmem -count=1 -run=^$$ .
	$(BIN)/r2cbench -scale 8 -runs 1 -baseline BENCH_figure6.json figure6
	$(BIN)/r2cattack -trials 4 -baseline BENCH_table3.json table3

# Interpreter-core benchmarks: one BenchmarkVM* per kernel (tight ALU
# loop, call-dense code under three configs, load/store churn, and the
# call-dense kernel with the flight recorder attached), each printing the
# dispatch engine's Minstr/s on that code shape, plus nab under full R2C,
# the module that retires most of Figure 6's instructions.
bench-vm:
	$(GO) test -bench=BenchmarkVM -benchmem -count=1 -run=^$$ ./internal/vm/

# Differential fuzzing, one target per `go test -fuzz` run. The interpreter:
# generated programs, chunk sizes and RSS-sample / i-cache-flush intervals,
# with the fast path and the test-only reference interpreter stepped in
# lockstep. Process snapshots: after forks mutated by fuzzed stores,
# allocations and protections, the next fork must run bit-identically to
# the un-forked loaded process. Machine reuse: after warm-up requests (other
# images, faults, traps, budget pauses, dirtied knobs) on one machine, a
# Reset onto the next fork must run bit-identically to a fresh vm.New. Plain
# `go test` replays the committed seed corpora (internal/{vm,rt}/testdata/fuzz);
# a failing input the fuzzer finds lands there too, ready to commit as a
# regression. Each new interesting input is minimized for at most 1 s, not
# Go's default 60 s: at 30 s per target the default left the two rt targets
# with 18 and 22 new inputs, and 1 s with 243 and 371.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzFastMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/vm/
	$(GO) test -run=^$$ -fuzz=FuzzForkMatchesLoad -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/rt/
	$(GO) test -run=^$$ -fuzz=FuzzResetMatchesNew -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/rt/

# Modeled-numbers gate: re-run each committed baseline's experiment at its
# recorded parameters and fail if any metric drifts beyond a last-ulp
# allowance, in either direction. Wall-clock speed is judged only by the
# benchmark module (benchmark/, r2cperf compare). DIAG=dir additionally
# writes each run's metrics snapshot and incident timeline into dir/ — the
# forensic bundle CI uploads when the gate fails.
DIAGFLAGS = $(if $(DIAG),-metrics-out $(DIAG)/$(1)-metrics.json -incidents-out $(DIAG)/$(1)-incidents.json)
bench-compare: $(BIN)/r2cbench $(BIN)/r2cattack
	$(if $(DIAG),mkdir -p $(DIAG))
	$(BIN)/r2cbench $(call DIAGFLAGS,figure6) -compare BENCH_figure6.json
	$(BIN)/r2cattack $(call DIAGFLAGS,table3) -compare BENCH_table3.json

# Diversity-audit gate: 8 re-diversified builds of the attack victim under
# full R2C, emitted as the machine-readable JSON report. The report is
# deterministic at any -jobs width, so the fresh copy in $(BIN)/ must be
# byte-identical to the committed AUDIT_victim.json; an intended change to
# the auditor or the diversity it measures commits the new report. CI runs
# this to keep the auditor's CLI path (module resolution → parallel builds
# → deterministic fold → JSON) exercised end to end.
audit: $(BIN)/r2caudit
	$(BIN)/r2caudit -config r2c -variants 8 -json victim > $(BIN)/AUDIT_victim.json
	cmp $(BIN)/AUDIT_victim.json AUDIT_victim.json
	$(BIN)/r2caudit -config r2c -variants 8 victim

# Serving-fleet smoke: tools/servesmoke drives r2cserve through bounded
# MVEE-supervised runs in three legs. The live run, under injected corruption
# pressure, keeps -require-recover (exit nonzero unless detect → quarantine →
# rebuild → resume happened) and is scraped mid-flight: /progress until the
# fleet has served requests, then /metrics, /healthz and /alerts. A -jobs 1 vs
# -jobs 8 pair must write byte-identical -incidents-out files and -json "sim"
# objects. The point-in-time rule count(fleet.quarantines) >= 1 must stay
# quiet (exit 0) on a benign run and fire (exit 1) on an attacked one. The
# live run's metrics land in SERVE_metrics.json.
serve-smoke: $(BIN)/r2cserve
	$(GO) run ./tools/servesmoke $(BIN)/r2cserve

# Inlining gate: the data-TLB hit helpers, the i-cache MRU probe and the
# per-op cycle charge must inline at every call site in the VM's dispatch
# loop, or every load, store, line transition or op pays a call again with
# no test failing. The TLB helpers cost 49 of the compiler's inlining budget
# of 80 and the probe 42, and a caller the compiler deems big caps callees
# at 20, so the gate counts the compiler's "inlining call to" reports in
# fast.go against each helper's call sites there.
inline:
	@out=$$($(GO) build -gcflags=-m ./internal/vm/ 2>&1); \
	for h in Machine.loadHit Machine.storeHit icache.mru Machine.tally; do \
		recv=$${h%.*}; f=$${h#*.}; \
		sites=$$(grep -o "\.$$f(" internal/vm/fast.go | wc -l); \
		inl=$$(echo "$$out" | grep -c "fast\.go:.*inlining call to (\*$$recv)\.$$f$$"); \
		[ "$$sites" -gt 0 ] && [ "$$inl" -eq "$$sites" ] || { \
			echo "inline: (*$$recv).$$f inlines at $$inl of $$sites call sites in fast.go; see go build -gcflags=-m=2 ./internal/vm/"; exit 1; }; \
	done

# The tier-1 gate: what CI (.github/workflows/ci.yml) runs. The exec engine,
# the telemetry package (ops HTTP server, span sinks, registry) and the CLI
# harness (ops server lifecycle, signal context) are cheap enough to always
# take the race detector. The tight -timeout is load-bearing: the
# fault-injection tests exercise the fuel watchdog, panics and injected
# failures, and a regression that reintroduces a real hang should fail the
# gate in minutes, not hours. The
# benchmark is its own module, so root `go build ./...` skips it; it is
# vetted and tested here because it imports internal/telemetry, exec, fleet
# and perf.
check: build vet inline test
	$(GO) test -race -timeout 300s $(RACE_PKGS)
	$(GO) test -run=^$$ -bench=BenchmarkVM -benchtime=1x ./internal/vm/
	$(GO) test -run=^$$ -bench='BenchmarkBuildImage|BenchmarkRediversify|BenchmarkPredecode|BenchmarkLoad|BenchmarkFork|BenchmarkServeRequest' -benchtime=1x ./internal/rt/
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
	rm -rf $(BIN)
