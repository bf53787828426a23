package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"gpucnn/internal/serve"
)

// serveRates are the offered loads of the serving phases, in requests
// per second, lowest first. The middle one reports op_p50_ms and the
// highest items_per_s.
var serveRates = []float64{10000, 20000, 30000}

const (
	// serveMaxBatch is the batch size that flushes a replica's batcher,
	// the serve package's default.
	serveMaxBatch = 32
	// serveQueue is the replica's admission queue. At the top rate it
	// holds over a quarter second of arrivals, so a host stall queues
	// requests (and shows in their latency) instead of shedding them:
	// the workload measures latency, and no request fails.
	serveQueue = 8192
	// serveLanes bounds the requests in flight from the generator. It
	// covers everything the replica can hold (its queue plus its
	// devices' batch queues), so the generator does not drop requests
	// either.
	serveLanes = 2 * serveQueue
	// serveLimit is the latency limit a request must meet to count as
	// goodput.
	serveLimit = 5 * time.Millisecond
)

// serveSession drives a serving fleet of one replica over two simulated
// K40c devices, with the autoscaler pinned to that one replica.
type serveSession struct {
	seed  int64
	fleet *serve.Fleet
}

func newServeSession(seed int64) (session, error) {
	f, err := serve.NewFleet(serve.FleetOptions{
		Replicas: 1, ShardDevices: 2,
		Server:    serve.Options{MaxBatch: serveMaxBatch, QueueCap: serveQueue},
		Autoscale: serve.AutoscaleConfig{Min: 1, Max: 1},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupOps; i++ {
		res, err := f.Submit(context.Background(), "warm-up", serve.PriorityInteractive)
		if err == nil {
			err = saneResult(res, f)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return &serveSession{seed: seed, fleet: f}, nil
}

func (s *serveSession) close() { s.fleet.Close() }

// check has nothing to do at set-up: every served request is checked as
// it returns.
func (s *serveSession) check(*report) {}

// saneResult checks what the fleet reports about a served request.
func saneResult(res serve.Result, f *serve.Fleet) error {
	if res.BatchSize < 1 || res.BatchSize > serveMaxBatch {
		return fmt.Errorf("batch size %d", res.BatchSize)
	}
	if n := f.Options().ShardDevices; res.Device < 0 || res.Device >= n {
		return fmt.Errorf("device %d of %d", res.Device, n)
	}
	if res.BatchSim <= 0 {
		return fmt.Errorf("simulated batch time %v", res.BatchSim)
	}
	return nil
}

// phaseStats summarises one serving phase.
type phaseStats struct {
	offered, completed, shed, failed, dropped int
	latency, queue, exec, lag                 []float64 // ms
	tracedLatency                             []float64 // ms, traced requests only
	batches                                   []float64
	good                                      int // completed within serveLimit
}

func (s *serveSession) measure(window time.Duration, tr *tracer, r *report) {
	rng := rand.New(rand.NewSource(s.seed))
	phase := window / time.Duration(len(serveRates))
	perDevice := map[int]int{}
	var simPerImg []float64
	for pi, rate := range serveRates {
		name := fmt.Sprintf("r%gk", rate/1000)
		due := poissonArrivals(rng, rate, phase)
		root := tr.begin(fmt.Sprintf("phase %s", name), "", 0, -1)
		outs := runOpenLoop(due, serveLanes, func(lane, i int) (serve.Result, error) {
			if tr == nil || i%2 == 0 {
				return s.fleet.Submit(context.Background(), "", serve.PriorityInteractive)
			}
			sp := tr.begin("fleet.Submit", "", lane+1, root)
			defer tr.end(sp)
			return s.fleet.Submit(context.Background(), "", serve.PriorityInteractive)
		})
		tr.end(root)
		st := phaseStats{offered: len(outs)}
		for i, o := range outs {
			switch {
			case o.dropped:
				st.dropped++
				continue
			case errors.Is(o.err, serve.ErrOverloaded):
				st.shed++
			case o.err != nil:
				st.failed++
			default:
				if err := saneResult(o.res, s.fleet); err != nil {
					r.fail("%s request %d: %v", name, i, err)
				}
				st.completed++
				if tr != nil && i%2 == 1 {
					st.tracedLatency = append(st.tracedLatency, ms(o.latency()))
				} else {
					st.latency = append(st.latency, ms(o.latency()))
				}
				if o.latency() <= serveLimit {
					st.good++
				}
				st.queue = append(st.queue, ms(o.res.QueueWait))
				st.exec = append(st.exec, ms(o.res.E2E-o.res.QueueWait))
				st.batches = append(st.batches, float64(o.res.BatchSize))
				simPerImg = append(simPerImg, float64(o.res.SimPerImage())/float64(time.Microsecond))
				perDevice[o.res.Device]++
			}
			st.lag = append(st.lag, ms(o.lateness()))
		}
		r.Attempted += st.offered
		r.Failed += st.shed + st.failed + st.dropped
		s.record(r, tr, name, st, phase, pi)
	}
	if tr == nil {
		return
	}
	r.set("serve.sim_us_per_img", mean(simPerImg))
	devices := s.fleet.Options().ShardDevices
	lo, hi, total := perDevice[0], perDevice[0], 0
	for d := 0; d < devices; d++ {
		lo, hi, total = min(lo, perDevice[d]), max(hi, perDevice[d]), total+perDevice[d]
	}
	if total > 0 {
		r.set("serve.device_skew", float64(hi-lo)/(float64(total)/float64(devices)))
	}
}

// record reports one phase: end-to-end numbers for the middle and top
// phases, per-phase layer numbers in a traced run, and a summary note.
func (s *serveSession) record(r *report, tr *tracer, name string, st phaseStats, phase time.Duration, pi int) {
	p50 := percentile(st.latency, 0.5)
	goodput := float64(st.good) / phase.Seconds()
	lost := float64(st.shed+st.failed+st.dropped) / float64(st.offered)
	r.note("%s: %d offered, %d completed, %d shed, %d failed, %d dropped by the generator; latency from due time p50 %.3f ms, %s; goodput %.0f/s within %v; generator lateness %s",
		name, st.offered, st.completed, st.shed, st.failed, st.dropped, p50, tailNote(st.latency, "ms"),
		goodput, serveLimit, tailNote(st.lag, "ms"))
	switch pi {
	case len(serveRates) / 2:
		r.set("op_p50_ms", p50)
	case len(serveRates) - 1:
		r.set("items_per_s", goodput)
	}
	if tr == nil {
		return
	}
	if pi == len(serveRates)/2 {
		r.set("trace.overhead_ratio", percentile(st.tracedLatency, 0.5)/p50)
	}
	prefix := "serve." + name + "."
	r.set(prefix+"p50_ms", p50)
	r.set(prefix+"p99_ms", percentile(st.latency, 0.99))
	r.set(prefix+"queue_p50_ms", percentile(st.queue, 0.5))
	r.set(prefix+"exec_p50_ms", percentile(st.exec, 0.5))
	r.set(prefix+"batch_mean", mean(st.batches))
	r.set(prefix+"shed_ratio", lost)
	r.set(prefix+"gen_lag_p99_ms", percentile(st.lag, 0.99))
}
