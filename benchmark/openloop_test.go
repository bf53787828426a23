package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gpucnn/internal/serve"
)

func TestPoissonArrivals(t *testing.T) {
	d := 2 * time.Second
	a := poissonArrivals(rand.New(rand.NewSource(7)), 5000, d)
	b := poissonArrivals(rand.New(rand.NewSource(7)), 5000, d)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= d {
		t.Fatalf("schedule not sorted inside [0, %v): first %v last %v", d, a[0], a[len(a)-1])
	}
	if got := float64(len(a)) / d.Seconds(); math.Abs(got-5000)/5000 > 0.05 {
		t.Fatalf("rate %.0f/s, want about 5000/s", got)
	}
}

func TestOutcomeTimesFromDue(t *testing.T) {
	o := outcome{due: 10 * time.Millisecond, start: 15 * time.Millisecond, end: 40 * time.Millisecond}
	if o.latency() != 30*time.Millisecond {
		t.Errorf("latency %v, want 30ms: from the due time, not from the send", o.latency())
	}
	if o.lateness() != 5*time.Millisecond {
		t.Errorf("lateness %v, want 5ms", o.lateness())
	}
}

// A slow request must not hold back the next one: the loop is open.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	const ms = time.Millisecond
	due := []time.Duration{0, 5 * ms, 10 * ms}
	hold := []time.Duration{60 * ms, 2 * ms, 2 * ms}
	outs := runOpenLoop(due, 4, func(lane, i int) (serve.Result, error) {
		time.Sleep(hold[i])
		return serve.Result{BatchSize: 1}, nil
	})
	for i, o := range outs {
		if o.dropped || o.err != nil {
			t.Fatalf("request %d: dropped %v, err %v", i, o.dropped, o.err)
		}
		if o.due != due[i] || o.start < o.due {
			t.Errorf("request %d sent at %v, before its due time %v", i, o.start, o.due)
		}
		if o.latency() != o.end-due[i] || o.latency() < hold[i] {
			t.Errorf("request %d: latency %v, want end-due = %v and at least %v", i, o.latency(), o.end-due[i], hold[i])
		}
		if o.lateness() < 0 || o.lateness() > 20*ms {
			t.Errorf("request %d: lateness %v", i, o.lateness())
		}
	}
	if outs[1].start >= outs[0].end {
		t.Errorf("request 1 waited for request 0 (sent %v, request 0 ended %v)", outs[1].start, outs[0].end)
	}
}

// With every lane busy a due request is dropped, not delayed.
func TestOpenLoopDropsWhenLanesAreFull(t *testing.T) {
	const ms = time.Millisecond
	due := []time.Duration{0, 5 * ms, 80 * ms}
	outs := runOpenLoop(due, 1, func(lane, i int) (serve.Result, error) {
		if lane != 0 {
			t.Errorf("lane %d of 1", lane)
		}
		if i == 0 {
			time.Sleep(40 * ms)
		}
		return serve.Result{BatchSize: 1}, nil
	})
	if outs[0].dropped || !outs[1].dropped || outs[2].dropped {
		t.Fatalf("dropped = %v %v %v, want false true false", outs[0].dropped, outs[1].dropped, outs[2].dropped)
	}
}
