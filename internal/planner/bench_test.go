package planner

import (
	"context"
	"testing"

	"gpucnn/internal/bench"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

// BenchmarkPlannerDecide measures a cold decision: scoring every
// candidate's kernel plan through the cost model for the paper's base
// configuration.
func BenchmarkPlannerDecide(b *testing.B) {
	spec := gpusim.TeslaK40c()
	cfg := workload.Base()
	for i := 0; i < b.N; i++ {
		p := New(Options{Cache: NewCache()})
		if _, err := p.Decide(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerDecideCached measures the steady-state path every
// serving replica's device plans hit: a decision served from the cache.
func BenchmarkPlannerDecideCached(b *testing.B) {
	spec := gpusim.TeslaK40c()
	cfg := workload.Base()
	p := New(Options{Cache: NewCache()})
	if _, err := p.Decide(spec, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Decide(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerDecisionQuality re-runs the five Figure 3 sweeps
// with Autotuned in the engine set and reports the mean per-cell ratio
// of Autotuned's time to the best fixed engine's as the "ratio"
// metric — 1.0 means the planner always picks the per-cell winner,
// below 1.0 means its extended candidate pool (Winograd) beats every
// fixed engine. `make bench-planner` snapshots this into
// BENCH_planner.json; `make bench-planner-compare` fails the build if
// it regresses.
func BenchmarkPlannerDecisionQuality(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		autotuned := NewAutotuned(Options{Cache: NewCache()})
		engines := append(impls.All(), autotuned)
		var sum float64
		var cells int
		for _, sweep := range workload.SweepNames() {
			rows := bench.Figure3Ctx(context.Background(), sweep, gpusim.TeslaK40c(),
				bench.Options{Engines: engines})
			for _, row := range rows {
				best, ok := bestFixed(row)
				if !ok {
					continue
				}
				cell, ok := row.CellFor("Autotuned")
				if !ok || !cell.Ok() {
					b.Fatalf("%s sweep value %d: missing Autotuned cell", sweep, row.Value)
				}
				sum += cell.Time.Seconds() / best.Time.Seconds()
				cells++
			}
		}
		ratio = sum / float64(cells)
	}
	b.ReportMetric(ratio, "ratio")
}
