package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpucnn/internal/par"
	"gpucnn/internal/telemetry"
)

// LoadOptions configures the closed-loop load generator: Clients
// concurrent callers each submit, wait for completion, and immediately
// submit again — the classical closed-loop model whose offered load is
// set by the concurrency level rather than an arrival rate.
type LoadOptions struct {
	// Clients is the closed-loop concurrency. Default 8.
	Clients int
	// Requests stops the run after that many completions (0: run for
	// Duration instead).
	Requests int
	// Duration is the wall window when Requests is 0. Default 1s.
	Duration time.Duration
	// RetryWait is the client backoff after ErrOverloaded. Default 200µs.
	RetryWait time.Duration
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Requests <= 0 && o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.RetryWait <= 0 {
		o.RetryWait = 200 * time.Microsecond
	}
	return o
}

// Report summarises one load-generator run.
type Report struct {
	Clients   int
	Completed int
	Rejected  int
	Failed    int
	Wall      time.Duration

	// ThroughputRPS is completed requests per wall second.
	ThroughputRPS float64
	// SimImagesPerSec is images per simulated GPU-busy second — the
	// batch-amortisation number (Figure 3a as a serving result).
	SimImagesPerSec float64
	// MeanBatch is the mean formed batch size over completed requests.
	MeanBatch float64

	// End-to-end wall latency percentiles (admission → completion).
	P50, P95, P99, Max time.Duration
	// Queue-wait percentiles (admission → execution start).
	QueueP50, QueueP99 time.Duration
}

// RunLoad drives the server with a closed loop until the request quota
// or the wall window is exhausted, then publishes the headline numbers
// (throughput, simulated images/s, p99) as gauges in the server's
// registry and returns the full report.
func RunLoad(ctx context.Context, s *Server, opts LoadOptions) Report {
	opts = opts.withDefaults()
	s.Start()
	if opts.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	var (
		mu        sync.Mutex
		e2es      []time.Duration
		queues    []time.Duration
		simShare  time.Duration // Σ per-request share of batch sim time
		batchSum  int64
		rejected  atomic.Int64
		failed    atomic.Int64
		remaining atomic.Int64
	)
	remaining.Store(int64(opts.Requests)) // 0 or negative: unbounded

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		par.Go(fmt.Sprintf("serve.loadgen-%d", c), func() {
			defer wg.Done()
			// Each quota slot is retried until it completes: the quota
			// counts completions, and a slot handed back after a
			// rejection could be missed by clients that already saw the
			// quota run out and left.
			for ctx.Err() == nil {
				if opts.Requests > 0 && remaining.Add(-1) < 0 {
					return
				}
				for {
					res, err := s.Submit(ctx)
					if err == nil {
						mu.Lock()
						e2es = append(e2es, res.E2E)
						queues = append(queues, res.QueueWait)
						simShare += res.SimPerImage()
						batchSum += int64(res.BatchSize)
						mu.Unlock()
						break
					}
					if ctx.Err() != nil {
						return
					}
					if !errors.Is(err, ErrOverloaded) {
						failed.Add(1)
						continue
					}
					rejected.Add(1)
					select {
					case <-time.After(opts.RetryWait):
					case <-ctx.Done():
						return
					}
				}
			}
		})
	}
	wg.Wait()
	wall := time.Since(start)

	rep := Report{
		Clients:   opts.Clients,
		Completed: len(e2es),
		Rejected:  int(rejected.Load()),
		Failed:    int(failed.Load()),
		Wall:      wall,
	}
	if wall > 0 {
		rep.ThroughputRPS = float64(rep.Completed) / wall.Seconds()
	}
	if simShare > 0 {
		rep.SimImagesPerSec = float64(rep.Completed) / simShare.Seconds()
	}
	if rep.Completed > 0 {
		rep.MeanBatch = float64(batchSum) / float64(rep.Completed)
	}
	rep.P50 = percentile(e2es, 0.50)
	rep.P95 = percentile(e2es, 0.95)
	rep.P99 = percentile(e2es, 0.99)
	rep.Max = percentile(e2es, 1)
	rep.QueueP50 = percentile(queues, 0.50)
	rep.QueueP99 = percentile(queues, 0.99)

	labels := telemetry.Labels{"engine": s.opts.Engine.Name()}
	reg := s.opts.Obs.Registry()
	reg.Gauge("serve_load_throughput_rps", labels).Set(rep.ThroughputRPS)
	reg.Gauge("serve_load_sim_images_per_second", labels).Set(rep.SimImagesPerSec)
	reg.Gauge("serve_load_p99_seconds", labels.With("clock", "host")).Set(rep.P99.Seconds())
	return rep
}

// percentile returns the q-quantile (0 < q ≤ 1) by nearest-rank over a
// copy of the sample: the ⌈n·q⌉-th smallest value.
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(float64(len(s))*q)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
