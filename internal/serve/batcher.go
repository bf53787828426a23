package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
)

// batch is a formed group of requests bound for one device.
type batch struct {
	reqs     []*request
	device   int
	formedAt time.Time
}

// batchLoop is the dynamic batcher: it blocks for the first request,
// then accumulates until the batch is full or the max-wait deadline
// passes, and hands the formed batch to the least-loaded device. When
// the admission queue closes it drains every remaining request into
// final batches before shutting the device queues.
func (s *Server) batchLoop() {
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
func (s *Server) collect(first *request) []*request {
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
// time on identical devices) and enqueues it there. A full device
// queue blocks the batcher, which in turn fills the admission queue
// and surfaces as ErrOverloaded — backpressure instead of backlog.
func (s *Server) dispatch(reqs []*request) {
	s.qDepth.Set(float64(len(s.queue)))
	d := 0
	min := s.load[0].Load()
	for i := 1; i < len(s.load); i++ {
		if l := s.load[i].Load(); l < min {
			min, d = l, i
		}
	}
	s.load[d].Add(int64(len(reqs)))
	s.devq[d] <- &batch{reqs: reqs, device: d, formedAt: time.Now()}
}

// deviceLoop serves one device's batch queue.
func (s *Server) deviceLoop(i int) {
	defer s.wg.Done()
	for b := range s.devq[i] {
		s.runBatch(i, b)
		s.load[i].Add(-int64(len(b.reqs)))
	}
}

// runBatch executes one formed batch on device i: transfer + forward
// through the cached plan, simulated duration measured as the device
// clock delta, then (TimeScale permitting) the wall occupancy sleep
// that makes closed-loop load realistic.
func (s *Server) runBatch(i int, b *batch) {
	start := time.Now()
	cfg := s.opts.Model
	cfg.Batch = len(b.reqs)

	nb := s.nbatch.Add(1)
	bsp := s.root.Child(fmt.Sprintf("batch-%d", nb)).
		SetProc(i).
		SetAttr("device", fmt.Sprint(i)).
		SetAttr("size", fmt.Sprint(len(b.reqs)))
	// Guard every exit — including a panicking engine — so a failed
	// batch can never leak an open span into the trace (the PR 4 bug
	// class); the explicit End below stays the precise close.
	defer bsp.EndIfOpen()
	if s.plane != nil {
		s.plane.SetOp(fmt.Sprintf("serve/dev%d/batch-%d/size-%d", i, nb, len(b.reqs)))
	}

	var sim time.Duration
	dm := s.dev[i]
	err := s.plans.Exec(i, cfg, func(dev *gpusim.Device, p impls.Plan) error {
		// The device is ours until Exec returns: point its recorder at
		// this batch's span (nil when untraced — events are then only
		// counted) for the duration.
		dm.rec.Attach(bsp)
		dev.SetSink(dm.rec)
		defer dev.SetSink(nil)
		e0 := dev.Elapsed()
		err := p.Inference()
		sim = dev.Elapsed() - e0
		bsp.SetSim(e0, e0+sim)
		return err
	})
	if err == nil && s.opts.TimeScale > 0 && sim > 0 {
		time.Sleep(time.Duration(float64(sim) * s.opts.TimeScale))
	}

	s.inflight.Set(float64(sumLoads(s.load)))
	s.batches.Inc()
	s.hBatch.Observe(float64(len(b.reqs)))
	dm.batches.Inc()
	dm.busy.Add(sim.Seconds())
	// The batch succeeds or fails as a whole. Count before replying, so
	// a caller that sees its result also sees it counted.
	if n := float64(len(b.reqs)); err != nil {
		s.failed.Add(n)
	} else {
		s.images.Add(n)
		dm.images.Add(n)
	}

	res := Result{BatchSize: len(b.reqs), Device: i, BatchSim: sim}
	for _, r := range b.reqs {
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

func sumLoads(ls []atomic.Int64) int64 {
	var t int64
	for i := range ls {
		t += ls[i].Load()
	}
	return t
}
