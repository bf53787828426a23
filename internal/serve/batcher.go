package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"gpucnn/internal/conv"
	"gpucnn/internal/impls"
	"gpucnn/internal/telemetry"
)

// batchLoop is the dynamic batcher: it blocks for the first request,
// then accumulates until the batch is full or the max-wait deadline
// passes, and hands the formed batch to the least-loaded device. When
// the admission queue closes it drains every remaining request into
// final batches before shutting the device queues.
func (s *server) batchLoop() {
	defer s.wg.Done()
	defer func() {
		for _, q := range s.devq {
			close(q)
		}
	}()
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		s.dispatch(s.collect(first))
	}
}

// collect forms one batch starting from an already-received request.
func (s *server) collect(first *request) []*request {
	reqs := []*request{first}
	if s.opts.MaxBatch == 1 {
		return reqs
	}
	timer := time.NewTimer(s.opts.MaxWait)
	defer timer.Stop()
	for len(reqs) < s.opts.MaxBatch {
		select {
		case r, ok := <-s.queue:
			if !ok {
				return reqs
			}
			reqs = append(reqs, r)
		case <-timer.C:
			return reqs
		}
	}
	return reqs
}

// dispatch assigns the batch to the device with the fewest outstanding
// images (queued plus running — a direct proxy for remaining service
// time on identical devices) and enqueues it there. The scan starts one
// device later on each dispatch and ties go to the first device
// scanned, so a device that keeps the minimum load is picked within N
// dispatches instead of losing every tie to device 0. A full device
// queue blocks the batcher, which in turn fills the admission queue
// and surfaces as ErrOverloaded — backpressure instead of backlog.
// Only the batcher goroutine dispatches, so s.scan needs no lock.
func (s *server) dispatch(reqs []*request) {
	s.qDepth.Set(float64(len(s.queue)))
	n := len(s.load)
	s.scan = (s.scan + 1) % n
	d := s.scan
	min := s.load[d].Load()
	for k := 1; k < n; k++ {
		i := (s.scan + k) % n
		if l := s.load[i].Load(); l < min {
			min, d = l, i
		}
	}
	s.load[d].Add(int64(len(reqs)))
	s.devq[d] <- reqs
}

// deviceLoop serves one device's batch queue.
func (s *server) deviceLoop(i int) {
	defer s.wg.Done()
	for reqs := range s.devq[i] {
		s.runBatch(i, reqs)
		s.load[i].Add(-int64(len(reqs)))
	}
}

// runBatch executes one formed batch on device i: transfer + forward
// through the cached plan, simulated duration measured as the device
// clock delta, then (TimeScale permitting) the wall occupancy sleep
// that gives the replica the capacity of hardware of that speed.
func (s *server) runBatch(i int, reqs []*request) {
	start := time.Now()
	cfg := s.opts.Model
	cfg.Batch = len(reqs)

	nb := s.nbatch.Add(1)
	bsp := s.root.Child(fmt.Sprintf("batch-%d", nb)).
		SetProc(i).
		SetAttr("device", fmt.Sprint(i)).
		SetAttr("size", fmt.Sprint(len(reqs)))
	// Guard every exit — including a panicking engine — so a failed
	// batch can never leak an open span into the trace (the PR 4 bug
	// class); the explicit End below stays the precise close.
	defer bsp.EndIfOpen()
	if s.plane != nil {
		s.plane.SetOp(fmt.Sprintf("serve/dev%d/batch-%d/size-%d", i, nb, len(reqs)))
	}

	g := &s.gpus[i]
	sim, err := g.infer(s.opts.Engine, cfg, bsp)
	if err == nil && s.opts.TimeScale > 0 && sim > 0 {
		time.Sleep(time.Duration(float64(sim) * s.opts.TimeScale))
	}

	s.inflight.Set(float64(sumLoads(s.load)))
	s.batches.Inc()
	s.hBatch.Observe(float64(len(reqs)))
	g.batches.Inc()
	g.busy.Add(sim.Seconds())
	// The batch succeeds or fails as a whole. Count before replying, so
	// a caller that sees its result also sees it counted.
	if n := float64(len(reqs)); err != nil {
		s.failed.Add(n)
	} else {
		s.images.Add(n)
		g.images.Add(n)
	}

	res := Result{BatchSize: len(reqs), Device: i, BatchSim: sim}
	for _, r := range reqs {
		rr := res
		rr.QueueWait = start.Sub(r.enq)
		rr.E2E = time.Since(r.enq)
		s.hQueue.Observe(rr.QueueWait.Seconds())
		if err != nil {
			r.done <- reqDone{err: err}
			continue
		}
		s.hE2E.Observe(rr.E2E.Seconds())
		bsp.Child("request").
			SetAttr("queue_wait", rr.QueueWait.String()).
			SetAttr("e2e", rr.E2E.String()).
			SetSim(bsp.SimInterval()).End()
		r.done <- reqDone{res: rr}
	}
	bsp.End()
}

// infer runs one inference pass of a cfg-shaped batch on the device
// and returns its simulated duration, the device clock delta. The plan
// for cfg is built on first use; a Plan error (shape limit, device
// OOM) is not cached. For the pass the device's recorder points at
// span sp (nil when untraced: events are then only counted), and the
// sink is detached on every exit, a panicking engine included.
func (g *gpu) infer(e impls.Engine, cfg conv.Config, sp *telemetry.Span) (time.Duration, error) {
	p, ok := g.plans[cfg]
	if !ok {
		var err error
		if p, err = e.Plan(g.dev, cfg); err != nil {
			return 0, err
		}
		g.plans[cfg] = p
	}
	g.rec.Attach(sp)
	g.dev.SetSink(g.rec)
	defer g.dev.SetSink(nil)
	e0 := g.dev.Elapsed()
	err := p.Inference()
	sim := g.dev.Elapsed() - e0
	sp.SetSim(e0, e0+sim)
	return sim, err
}

func sumLoads(ls []atomic.Int64) int64 {
	var t int64
	for i := range ls {
		t += ls[i].Load()
	}
	return t
}
