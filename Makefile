# Tier-1 gate: everything a PR must keep green. The two validate runs
# check every engine against direct convolution on all three passes; the
# second (3x3, pad 1) is the shape cuDNN-Winograd supports.
.PHONY: tier1
tier1: lint
	go build ./...
	go test ./...
	go run ./cmd/validate
	go run ./cmd/validate -k 3 -pad 1
	go test -race ./internal/gemm ./internal/conv ./internal/par ./internal/workspace ./internal/impls ./internal/nn ./internal/serve ./internal/obs ./internal/telemetry ./internal/planner ./internal/analysis/...
	go test -count=3 -cpu 1,2,4 ./internal/par ./internal/conv ./internal/gemm ./internal/workspace ./internal/impls ./internal/nn ./internal/telemetry ./internal/obs ./internal/serve ./internal/planner ./cmd/paper

# Static analysis: the stock vet suite plus this repo's analyzers
# (spanend, errcmp, ctxbg, rawgo, obsstop, lockheld, hotalloc,
# atomicmix, wallclock, bareignore — see internal/analysis).
# cmd/lint re-execs itself as go vet's -vettool, so one invocation
# runs everything.
.PHONY: lint
lint:
	go vet ./...
	go run ./cmd/lint ./...

# Machine-readable lint: same suite, findings as a JSON array on
# stdout (file/line/col/analyzer/message), non-zero exit when any
# finding survives suppression.
.PHONY: lint-json
lint-json:
	go run ./cmd/lint -json ./...

# Every snapshot at once: kernels, planner and serving, each written by
# its own target below. Snapshots record the host's nproc and
# GOMAXPROCS; compare absolute numbers only between equal stamps.
.PHONY: bench
bench: bench-kernels bench-planner serve-bench

# Re-run all three and diff each against its committed snapshot
# (`make -k bench-compare` reports all three when one regresses).
.PHONY: bench-compare
bench-compare: bench-kernels-compare bench-planner-compare serve-bench-compare

# The kernel benchmark suite, written to the file named by its one
# argument: the GEMM benches at the host's GOMAXPROCS, the parallel
# GEMM again at one and two procs (rows BenchmarkGEMM/parallel/N and
# BenchmarkGEMM/parallel/N-2), then the convolution benches — forward
# on the Table I layers and per pass for the fft, unroll and winograd
# engines — and the layer benches (AlexNet's LRN and FC layers).
kernel_bench = \
	go test ./internal/gemm -run '^$$' -bench 'BenchmarkGEMM' -skip 'BenchmarkGEMM/parallel' -count=5 -timeout 60m | tee $(1) && \
	go test ./internal/gemm -run '^$$' -bench 'BenchmarkGEMM/parallel' -cpu 1,2 -count=5 -timeout 60m | tee -a $(1) && \
	go test ./internal/conv -run '^$$' -bench 'BenchmarkConvForward|BenchmarkConvFFT|BenchmarkConvUnroll|BenchmarkConvWinograd' -count=5 -timeout 60m | tee -a $(1) && \
	go test ./internal/nn -run '^$$' -bench 'BenchmarkLayer' -count=5 -timeout 60m | tee -a $(1)

# Kernel microbenchmarks: 5 repetitions of the GEMM, convolution and
# layer benches, summarised into BENCH_kernels.json (ns/op medians plus any
# GFLOPS metrics). Compare runs with benchstat if available.
.PHONY: bench-kernels
bench-kernels:
	$(call kernel_bench,bench_kernels.txt)
	go run ./cmd/benchjson -in bench_kernels.txt -out BENCH_kernels.json

.PHONY: bench-kernels-quick
bench-kernels-quick:
	go test ./internal/gemm -run '^$$' -bench 'BenchmarkGEMM/packed' -count=3 -timeout 30m

# Re-run the kernel benchmarks and diff the medians against the
# committed BENCH_kernels.json. Exits non-zero if any benchmark's
# new/old ns ratio exceeds the -regress threshold and a one-sided
# rank-sum test on the two sides' per-run ns/op agrees at 5% (a row
# over the threshold that the test does not confirm prints as noise);
# benchmarks that are new or removed are reported but never fail the
# run. Refresh the snapshot itself with `make bench-kernels`.
.PHONY: bench-kernels-compare
bench-kernels-compare:
	$(call kernel_bench,bench_kernels_new.txt)
	go run ./cmd/benchjson -in bench_kernels_new.txt -compare BENCH_kernels.json -regress 1.15

# Alternating A/B kernel comparison against another commit, for hosts
# whose load moves between runs: `make bench-kernels-ab BASE=<ref>
# [ROUNDS=n]`. BASE is extracted with git archive into a temporary
# directory, the internal/gemm, internal/conv and internal/nn test
# binaries of both trees are built, and each round runs the kernel
# benches once from each tree, the base first in odd rounds and this
# tree first in even ones, so a load spike lands on both sides alike.
# Each side is summarised by benchjson (bench_kernels_ab_{base,head}.json,
# per-round ns/op included) and this tree is compared with the base at
# the same -regress 1.15 and rank-sum test as bench-kernels-compare.
ROUNDS ?= 5

kernel_bench_once = \
	$(1)/gemm.test -test.run '^$$' -test.bench 'BenchmarkGEMM' -test.skip 'BenchmarkGEMM/parallel' -test.timeout 60m >> $(2) && \
	$(1)/gemm.test -test.run '^$$' -test.bench 'BenchmarkGEMM/parallel' -test.cpu 1,2 -test.timeout 60m >> $(2) && \
	$(1)/conv.test -test.run '^$$' -test.bench 'BenchmarkConvForward|BenchmarkConvFFT|BenchmarkConvUnroll|BenchmarkConvWinograd' -test.timeout 60m >> $(2) && \
	$(1)/nn.test -test.run '^$$' -test.bench 'BenchmarkLayer' -test.timeout 60m >> $(2)

.PHONY: bench-kernels-ab
bench-kernels-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-kernels-ab BASE=<ref> [ROUNDS=n]" >&2; exit 2; }
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir -p "$$tmp/src" "$$tmp/base" "$$tmp/head"; \
	git archive $(BASE) | tar -x -C "$$tmp/src"; \
	for p in gemm conv nn; do \
		(cd "$$tmp/src" && go test -c -o "$$tmp/base/$$p.test" ./internal/$$p); \
		go test -c -o "$$tmp/head/$$p.test" ./internal/$$p; \
	done; \
	: > bench_kernels_ab_base.txt; : > bench_kernels_ab_head.txt; \
	for r in $$(seq $(ROUNDS)); do \
		if [ $$((r % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			echo "round $$r/$(ROUNDS): $$side"; \
			$(call kernel_bench_once,"$$tmp/$$side",bench_kernels_ab_$$side.txt); \
		done; \
	done
	go run ./cmd/benchjson -in bench_kernels_ab_base.txt -note "kernel benches of $(BASE), alternating A/B rounds" -out bench_kernels_ab_base.json
	go run ./cmd/benchjson -in bench_kernels_ab_head.txt -note "kernel benches of this tree, alternating A/B rounds against $(BASE)" -out bench_kernels_ab_head.json
	go run ./cmd/benchjson -in bench_kernels_ab_head.txt -compare bench_kernels_ab_base.json -regress 1.15

# Planner decision-quality snapshot: decision latency (cold + cached)
# and the autotuned-vs-best-fixed ratio over the five Figure 3 sweeps
# (the "ratio" metric; 1.0 = always matches the per-cell winner),
# summarised into BENCH_planner.json.
.PHONY: bench-planner
bench-planner:
	go test ./internal/planner -run '^$$' -bench 'BenchmarkPlanner' -count=5 -timeout 30m | tee bench_planner.txt
	go run ./cmd/benchjson -in bench_planner.txt -note "planner decision quality and latency (medians over -count runs)" -out BENCH_planner.json

# Re-run the planner benchmarks and diff against the committed
# snapshot; exits non-zero past the -regress threshold (this gates the
# decision-quality ratio as well as the latencies).
.PHONY: bench-planner-compare
bench-planner-compare:
	go test ./internal/planner -run '^$$' -bench 'BenchmarkPlanner' -count=5 -timeout 30m | tee bench_planner_new.txt
	go run ./cmd/benchjson -in bench_planner_new.txt -compare BENCH_planner.json -regress 1.15

# Where the linker put the end-to-end benchmark's reference kernel.
# Builds the benchmark binary from this tree with benchmark/run.sh's
# offline environment and prints main.hostRef.func1's address and its
# offset mod 64. The benchmark divides host timings by that kernel's
# speed, so a change that only moves code can shift every adjusted
# metric; compare this line between two trees before reading a
# difference in their adjusted metrics as a real one.
bench_env = GOCACHE=$(CURDIR)/.bench_build/gocache GOTMPDIR=$(CURDIR)/.bench_build/tmp \
	GOPATH=$(CURDIR)/.bench_build/gopath GOMODCACHE=$(CURDIR)/.bench_build/gopath/pkg/mod \
	XDG_CONFIG_HOME=$(CURDIR)/.bench_build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

.PHONY: bench-layout
bench-layout:
	mkdir -p .bench_build/tmp
	$(bench_env) go -C benchmark build -o $(CURDIR)/.bench_build/perfbench .
	@addr=$$($(bench_env) go tool nm .bench_build/perfbench | awk '$$3 == "main.hostRef.func1" { print $$1 }'); \
	test -n "$$addr" || { echo "main.hostRef.func1 not found" >&2; exit 1; }; \
	echo "main.hostRef.func1 0x$$addr, $$((0x$$addr % 64)) mod 64"

# Serving-path microbenchmarks: the dynamic batcher vs the batch=1
# baseline (wall cost of the serving machinery plus the simulated
# per-image GPU cost as sim_us_per_img), and the admission-control
# rejection fast path. Summarised into BENCH_serve.json.
.PHONY: serve-bench
serve-bench:
	go test ./internal/serve -run '^$$' -bench 'BenchmarkServe|BenchmarkSubmitReject|BenchmarkFleet' -count=5 -timeout 30m | tee bench_serve.txt
	go run ./cmd/benchjson -in bench_serve.txt -note "serving-path benchmark snapshot (medians over -count runs)" -out BENCH_serve.json

# Re-run the serving benchmarks and diff against the committed
# snapshot; exits non-zero past the -regress threshold.
.PHONY: serve-bench-compare
serve-bench-compare:
	go test ./internal/serve -run '^$$' -bench 'BenchmarkServe|BenchmarkSubmitReject|BenchmarkFleet' -count=5 -timeout 30m | tee bench_serve_new.txt
	go run ./cmd/benchjson -in bench_serve_new.txt -compare BENCH_serve.json -regress 1.15
