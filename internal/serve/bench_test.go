package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/multigpu"
)

// BenchmarkServe measures end-to-end serving cost per request across
// batching policies on a 2-device cluster, with the wall-occupancy
// sleep disabled so the numbers isolate the serving machinery (queue,
// batcher, dispatch, plan cache) rather than the modelled GPU speed.
// The custom sim_us_per_img metric carries the simulated per-image GPU
// cost — the batch-amortisation figure.
func BenchmarkServe(b *testing.B) {
	policies := []struct {
		name     string
		maxBatch int
		maxWait  time.Duration
	}{
		{"batch1", 1, time.Millisecond},
		{"dyn8", 8, 500 * time.Microsecond},
		{"dyn32", 32, 500 * time.Microsecond},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			s, err := New(multigpu.New(2, gpusim.TeslaK40c()), Options{
				Model:     testModel(),
				MaxBatch:  p.maxBatch,
				MaxWait:   p.maxWait,
				QueueCap:  4096,
				TimeScale: -1, // no wall occupancy: measure the machinery
				Obs:       testPlane(),
				SLO:       SLOConfig{Disable: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			s.Start()
			var mu sync.Mutex
			var simShare time.Duration
			// Closed-loop concurrency must exceed the batch size for
			// batches to form; RunParallel alone gives GOMAXPROCS
			// clients, which may be 1.
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					res, err := s.Submit(context.Background())
					if err != nil {
						b.Error(err)
						return
					}
					mu.Lock()
					simShare += res.SimPerImage()
					mu.Unlock()
				}
			})
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(simShare.Microseconds())/float64(b.N), "sim_us_per_img")
			}
		})
	}
}

// BenchmarkSubmitReject measures the admission-control fast path: a
// full queue must shed load cheaply, not block the caller.
func BenchmarkSubmitReject(b *testing.B) {
	s, err := New(multigpu.New(1, gpusim.TeslaK40c()), Options{
		Model:    testModel(),
		QueueCap: 1,
		Obs:      testPlane(),
		SLO:      SLOConfig{Disable: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Never started: one async submit occupies the single queue slot
	// forever, so every further submit takes the rejection path.
	go s.Submit(context.Background())
	for len(s.queue) < 1 {
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(context.Background()); !errors.Is(err, ErrOverloaded) {
			b.Fatalf("want ErrOverloaded, got %v", err)
		}
	}
}
