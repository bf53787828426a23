package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gpucnn/internal/serve"
)

// poissonArrivals returns the due times of a Poisson arrival process at
// rps requests per second over d, as offsets from the phase start. The
// schedule depends only on rng, so a seed fixes it.
func poissonArrivals(rng *rand.Rand, rps float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rps
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// outcome is what became of one scheduled request. Times are offsets
// from the phase start.
type outcome struct {
	due     time.Duration // when the request was scheduled to be sent
	start   time.Duration // when the request's goroutine called submit
	end     time.Duration // when submit returned
	res     serve.Result
	err     error
	dropped bool // every lane was busy at the due time, so it was never sent
}

// latency is the time from when the request was due to its completion,
// so a stall that delays sending counts against the request.
func (o outcome) latency() time.Duration { return o.end - o.due }

// lateness is how long after its due time the request was sent.
func (o outcome) lateness() time.Duration { return o.start - o.due }

// spinBelow is the wait under which the dispatcher yields instead of
// sleeping: time.Sleep rounds sub-millisecond waits up to about 1 ms on
// Linux, which would send most requests late at these rates.
const spinBelow = 1200 * time.Microsecond

// runOpenLoop sends request i at due[i] and returns every request's
// outcome once all sent requests have finished. The loop is open: a
// request is sent on schedule whether or not earlier ones have
// returned. Each request runs on its own goroutine in one of `lanes`
// numbered slots, which bounds the requests in flight; a request due
// while every lane is busy is dropped rather than delaying the schedule.
func runOpenLoop(due []time.Duration, lanes int, submit func(lane, i int) (serve.Result, error)) []outcome {
	out := make([]outcome, len(due))
	free := make(chan int, lanes)
	for l := 0; l < lanes; l++ {
		free <- l
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, d := range due {
		for {
			wait := d - time.Since(t0)
			if wait <= 0 {
				break
			}
			if wait > spinBelow {
				time.Sleep(wait - spinBelow)
			} else {
				runtime.Gosched()
			}
		}
		select {
		case lane := <-free:
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Since(t0)
				res, err := submit(lane, i)
				out[i] = outcome{due: d, start: start, end: time.Since(t0), res: res, err: err}
				free <- lane
			}()
		default:
			out[i] = outcome{due: d, dropped: true}
		}
	}
	wg.Wait()
	return out
}
