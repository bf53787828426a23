package main

import (
	"runtime"
	"sync"
	"time"
)

// The benchmark's host is a shared virtual machine whose speed drifts:
// a fixed loop's time moves by up to a fifth over seconds to minutes,
// with nothing in the program changing. Op times are therefore also
// reported adjusted to a reference speed: each op is scaled by the time
// of a fixed reference kernel run next to it, which drifts with the
// host but runs no code of the program.

// refNominal is the reference kernel's time at the reference speed, the
// speed adjusted times are expressed at. It is about the kernel's time
// on the 2-core Xeon virtual machine the bounds in BENCHMARK.json were
// measured on, so there adjusted and raw times are of the same size.
const refNominal = 6 * time.Millisecond

// refScratch holds one buffer per reference worker, twice the size of
// a 2 MiB L2 cache, so streaming it goes to the shared L3 that
// neighbouring machines contend for.
var refScratch [][]float32

var refSink [64]float64

// hostRef runs the reference kernel on every CPU the program may use
// and returns its wall time. Contention slows each kind of code by a
// different amount and the workloads mix them, so each worker runs
// three kinds: dependent chains of multiply-adds and of loads (latency
// bound, like the simulator's bookkeeping), eight independent chains
// (throughput bound, like the convolution kernels), and a stream with
// independent sums (bandwidth bound, like the fully-connected layers).
func hostRef() time.Duration {
	workers := runtime.GOMAXPROCS(0)
	for len(refScratch) < workers {
		buf := make([]float32, 1<<20)
		for i := range buf {
			buf[i] = float32(i%7) * 0.25
		}
		refScratch = append(refScratch, buf)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := refScratch[w]
			refSink[w%len(refSink)] += refLatency(buf) + refThroughput() + refBandwidth(buf)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func refLatency(buf []float32) float64 {
	x, y := 1.0000001, 0.0
	for i := 0; i < 600_000; i++ {
		y = y*x + 1e-9
	}
	var s float32
	for r := 0; r < 2; r++ {
		for _, v := range buf {
			s += v * 1.5
		}
	}
	return y + float64(s)
}

func refThroughput() float64 {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	x := 1.0000001
	for i := 0; i < 400_000; i++ {
		a0 = a0*x + 1e-9
		a1 = a1*x + 2e-9
		a2 = a2*x + 3e-9
		a3 = a3*x + 4e-9
		a4 = a4*x + 5e-9
		a5 = a5*x + 6e-9
		a6 = a6*x + 7e-9
		a7 = a7*x + 8e-9
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

func refBandwidth(buf []float32) float64 {
	var s0, s1, s2, s3 float32
	for r := 0; r < 3; r++ {
		for i := 0; i+3 < len(buf); i += 4 {
			s0 += buf[i]
			s1 += buf[i+1]
			s2 += buf[i+2]
			s3 += buf[i+3]
		}
	}
	return float64(s0 + s1 + s2 + s3)
}

// adjust scales a time measured next to a reference kernel time to the
// reference speed.
func adjust(d, ref time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}
