# Tier-1 gate: everything a PR must keep green.
.PHONY: tier1
tier1: lint
	go build ./...
	go test ./...
	go test -race ./internal/gemm ./internal/conv ./internal/par ./internal/workspace ./internal/impls ./internal/serve ./internal/obs ./internal/telemetry ./internal/planner ./internal/analysis/...
	go test -count=3 -cpu 1,2,4 ./internal/conv ./internal/gemm ./internal/workspace ./internal/impls ./internal/telemetry ./internal/obs ./internal/serve ./internal/planner ./cmd/paper

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

# Kernel microbenchmarks: 5 repetitions of the GEMM and convolution
# benches, summarised into BENCH_kernels.json (ns/op medians plus any
# GFLOPS metrics). Compare runs with benchstat if available.
.PHONY: bench-kernels
bench-kernels:
	go test ./internal/gemm -run '^$$' -bench 'BenchmarkBlockedGEMM|BenchmarkGEMM|BenchmarkCGEMM' -count=5 -timeout 60m | tee bench_kernels.txt
	go test ./internal/conv -run '^$$' -bench 'BenchmarkConvForward|BenchmarkConvFFT' -count=5 -timeout 60m | tee -a bench_kernels.txt
	go run ./cmd/benchjson -in bench_kernels.txt -out BENCH_kernels.json

.PHONY: bench-kernels-quick
bench-kernels-quick:
	go test ./internal/gemm -run '^$$' -bench 'BenchmarkBlockedGEMM' -count=3 -timeout 30m

# Re-run the kernel benchmarks and diff the medians against the
# committed BENCH_kernels.json. Exits non-zero if any benchmark's
# new/old ns ratio exceeds the -regress threshold; benchmarks that are
# new or removed are reported but never fail the run. Refresh the
# snapshot itself with `make bench-kernels`.
.PHONY: bench-kernels-compare
bench-kernels-compare:
	go test ./internal/gemm -run '^$$' -bench 'BenchmarkBlockedGEMM|BenchmarkGEMM|BenchmarkCGEMM' -count=5 -timeout 60m | tee bench_kernels_new.txt
	go test ./internal/conv -run '^$$' -bench 'BenchmarkConvForward|BenchmarkConvFFT' -count=5 -timeout 60m | tee -a bench_kernels_new.txt
	go run ./cmd/benchjson -in bench_kernels_new.txt -compare BENCH_kernels.json -regress 1.15

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

# Serving-path microbenchmarks: the dynamic batcher vs the batch=1
# baseline (wall cost of the serving machinery plus the simulated
# per-image GPU cost as sim_us_per_img), and the admission-control
# rejection fast path. Summarised into BENCH_serve.json.
.PHONY: serve-bench
serve-bench:
	go test ./internal/serve -run '^$$' -bench 'BenchmarkServe|BenchmarkSubmitReject|BenchmarkFleet' -count=5 -timeout 30m | tee bench_serve.txt
	go run ./cmd/benchjson -in bench_serve.txt -note "serving-path benchmark snapshot (medians over -count runs)" -out BENCH_serve.json
