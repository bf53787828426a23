package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gpucnn/internal/par"
)

// TraceShape selects the arrival-rate curve of a generated trace.
type TraceShape int

const (
	// ShapeSteady holds BaseRPS for the whole duration.
	ShapeSteady TraceShape = iota
	// ShapeRamp climbs linearly BaseRPS→PeakRPS — the diurnal morning,
	// compressed.
	ShapeRamp
	// ShapeDiurnal is a raised-cosine day: BaseRPS at the edges,
	// PeakRPS mid-run.
	ShapeDiurnal
	// ShapeBurst holds BaseRPS with a PeakRPS plateau across the middle
	// fifth of the run.
	ShapeBurst
)

func (s TraceShape) String() string {
	switch s {
	case ShapeSteady:
		return "steady"
	case ShapeRamp:
		return "ramp"
	case ShapeDiurnal:
		return "diurnal"
	case ShapeBurst:
		return "burst"
	}
	return fmt.Sprintf("TraceShape(%d)", int(s))
}

// TraceShapeByName parses a -trace flag value.
func TraceShapeByName(s string) (TraceShape, error) {
	for sh := ShapeSteady; sh <= ShapeBurst; sh++ {
		if sh.String() == s {
			return sh, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown trace shape %q (want steady, ramp, diurnal or burst)", s)
}

// TraceOptions configures BuildTrace. Zero values take the documented
// defaults.
type TraceOptions struct {
	// Shape is the rate curve. Default ShapeSteady.
	Shape TraceShape
	// BaseRPS and PeakRPS bound the arrival rate. Defaults 200 and
	// 5×BaseRPS.
	BaseRPS, PeakRPS float64
	// Duration is the trace length. Default 2s.
	Duration time.Duration
	// Seed makes the trace reproducible. Default 1.
	Seed int64
	// HeavyTailP is the probability an inter-arrival gap is drawn from
	// a Pareto tail instead of the exponential body — the bursty,
	// heavy-tailed mix real front doors see. Default 0 (pure Poisson).
	HeavyTailP float64
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.BaseRPS <= 0 {
		o.BaseRPS = 200
	}
	if o.PeakRPS <= 0 {
		o.PeakRPS = 5 * o.BaseRPS
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// rate evaluates the shape's arrival rate at offset t.
func (o TraceOptions) rate(t time.Duration) float64 {
	x := t.Seconds() / o.Duration.Seconds()
	switch o.Shape {
	case ShapeRamp:
		return o.BaseRPS + (o.PeakRPS-o.BaseRPS)*x
	case ShapeDiurnal:
		return o.BaseRPS + (o.PeakRPS-o.BaseRPS)*0.5*(1-math.Cos(2*math.Pi*x))
	case ShapeBurst:
		if x >= 0.4 && x < 0.6 {
			return o.PeakRPS
		}
		return o.BaseRPS
	}
	return o.BaseRPS
}

// Arrival is one scheduled request of a trace.
type Arrival struct {
	At  time.Duration // offset from trace start
	Key string
	Pri Priority
}

// maxTraceArrivals bounds a generated trace (runaway-rate backstop).
const maxTraceArrivals = 1 << 20

// The arrival mix of every trace.
const (
	// tailAlpha is the Pareto shape of the heavy-tailed gaps (smaller =
	// heavier).
	tailAlpha = 1.5
	// traceKeys is the distinct routing-key population.
	traceKeys = 64
	// interactiveFrac and standardFrac split the priority mix; the
	// remainder is batch.
	interactiveFrac, standardFrac = 0.5, 0.3
)

// BuildTrace generates the open-loop arrival schedule: a
// non-homogeneous Poisson process following the shape's rate curve,
// optionally mixed with Pareto-tailed gaps, each arrival carrying a
// routing key and a priority class. The schedule is a pure function of
// the options — same seed, same trace — which is what makes fleet
// experiments replayable.
func BuildTrace(opts TraceOptions) []Arrival {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	var out []Arrival
	t := time.Duration(0)
	for t < opts.Duration && len(out) < maxTraceArrivals {
		r := opts.rate(t)
		if r < 1e-3 {
			r = 1e-3
		}
		mean := 1 / r // seconds between arrivals at this rate
		u := rng.Float64()
		var gap float64
		if opts.HeavyTailP > 0 && rng.Float64() < opts.HeavyTailP {
			// Pareto with the same mean as the exponential body:
			// xm = mean·(α−1)/α, gap = xm·(1−u)^(−1/α).
			xm := mean * (tailAlpha - 1) / tailAlpha
			gap = xm * math.Pow(1-u, -1/tailAlpha)
		} else {
			gap = -math.Log(1-u) * mean
		}
		if lim := opts.Duration.Seconds() / 4; gap > lim {
			gap = lim // one tail sample may not swallow the trace
		}
		t += time.Duration(gap * float64(time.Second))
		if t >= opts.Duration {
			break
		}
		pri := PriorityBatch
		switch p := rng.Float64(); {
		case p < interactiveFrac:
			pri = PriorityInteractive
		case p < interactiveFrac+standardFrac:
			pri = PriorityStandard
		}
		out = append(out, Arrival{
			At:  t,
			Key: fmt.Sprintf("user-%03d", rng.Intn(traceKeys)),
			Pri: pri,
		})
	}
	return out
}

// TraceReport summarises one open-loop trace replay against a fleet.
// Every issued arrival lands in exactly one of Completed, Shed and
// Failed, so they always sum to Offered.
type TraceReport struct {
	Offered   int // arrivals issued
	Completed int
	Shed      int // ErrOverloaded (server) plus client-side drops
	// Failed counts arrivals that got neither a result nor a shed: a
	// failed batch, or a request still in flight when ctx was
	// cancelled.
	Failed int
	Wall   time.Duration

	OfferedRPS    float64
	ThroughputRPS float64
	// SimImagesPerSec is completed images per simulated GPU-busy
	// second — the batch-amortisation number (Figure 3a as a serving
	// result).
	SimImagesPerSec float64
	// MeanBatch is the mean images per batch that served a completed
	// request.
	MeanBatch float64

	// End-to-end wall latency percentiles (admission → completion).
	P50, P95, P99, Max time.Duration
	// Queue-wait percentiles (admission → execution start).
	QueueP50, QueueP99 time.Duration

	// ShedByClass counts server-side sheds per priority class,
	// indexed by Priority — the shedding-order evidence.
	ShedByClass [3]int

	// ReplicaMin and ReplicaMax bracket the fleet size observed during
	// the replay — the autoscaler's visible response to the trace.
	ReplicaMin, ReplicaMax int
}

// maxTraceInflight bounds the open loop's outstanding requests; an
// arrival finding the window full is dropped client-side (counted as
// shed) rather than blocking the arrival process — open-loop traffic
// never waits for the server.
const maxTraceInflight = 8192

// RunTrace replays the trace against the fleet at wall-clock pace:
// each arrival fires at its scheduled offset whether or not earlier
// requests have completed — the open-loop model whose offered load is
// set by the trace, not by the server's speed. Returns when every
// issued request has resolved; after ctx is cancelled no further
// arrival is issued.
func RunTrace(ctx context.Context, f *Fleet, opts TraceOptions) TraceReport {
	opts = opts.withDefaults()
	arrivals := BuildTrace(opts)

	var (
		mu      sync.Mutex
		e2es    []time.Duration
		queues  []time.Duration
		batches float64 // Σ 1/BatchSize: each batch's requests sum to 1
		simBusy float64 // Σ BatchSim/BatchSize, seconds: each batch's sim time once
		rep     TraceReport
		wg      sync.WaitGroup
		infl    = make(chan struct{}, maxTraceInflight)
		start   = time.Now()
	)
	rep.ReplicaMin, rep.ReplicaMax = f.Size(), f.Size()

	sampleSize := func() {
		n := f.Size()
		if n < rep.ReplicaMin {
			rep.ReplicaMin = n
		}
		if n > rep.ReplicaMax {
			rep.ReplicaMax = n
		}
	}

	for i, a := range arrivals {
		if ctx.Err() != nil {
			break
		}
		if d := a.At - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		rep.Offered++
		if i%32 == 0 {
			mu.Lock()
			sampleSize()
			mu.Unlock()
		}
		select {
		case infl <- struct{}{}:
		default:
			mu.Lock()
			rep.Shed++ // client-side drop: the open loop never blocks
			mu.Unlock()
			continue
		}
		wg.Add(1)
		a := a
		par.Go(fmt.Sprintf("serve.trace-%d", i), func() {
			defer wg.Done()
			defer func() { <-infl }()
			res, err := f.Submit(ctx, a.Key, a.Pri)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				rep.Completed++
				e2es = append(e2es, res.E2E)
				queues = append(queues, res.QueueWait)
				batches += 1 / float64(res.BatchSize)
				simBusy += res.BatchSim.Seconds() / float64(res.BatchSize)
			case errors.Is(err, ErrOverloaded):
				rep.Shed++
				rep.ShedByClass[a.Pri.index()]++
			default:
				rep.Failed++
			}
		})
	}
	wg.Wait()
	mu.Lock()
	sampleSize()
	mu.Unlock()
	rep.Wall = time.Since(start)
	if rep.Wall > 0 {
		rep.OfferedRPS = float64(rep.Offered) / rep.Wall.Seconds()
		rep.ThroughputRPS = float64(rep.Completed) / rep.Wall.Seconds()
	}
	if simBusy > 0 {
		rep.SimImagesPerSec = float64(rep.Completed) / simBusy
	}
	if batches > 0 {
		rep.MeanBatch = float64(rep.Completed) / batches
	}
	rep.P50 = percentile(e2es, 0.50)
	rep.P95 = percentile(e2es, 0.95)
	rep.P99 = percentile(e2es, 0.99)
	rep.Max = percentile(e2es, 1)
	rep.QueueP50 = percentile(queues, 0.50)
	rep.QueueP99 = percentile(queues, 0.99)
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
