// Package par provides the work-distribution helpers shared by the
// compute kernels: bounded parallel for-loops over an index range,
// backed by a persistent worker pool so hot paths pay neither goroutine
// spawns nor (when dispatching a pooled Runner) any heap allocation;
// Span, which runs one worker per scratch slot; and JobPool, the typed
// pool the kernels keep their job structs in.
// It also owns Go, the supervised goroutine spawn that library code
// must use instead of a naked go statement (enforced by the rawgo
// analyzer in internal/analysis).
package par

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// goPanics counts panics recovered by Go-spawned goroutines; lastPanic
// keeps the most recent one for tests and postmortems.
var (
	goPanics  atomic.Int64
	lastPanic atomic.Pointer[PanicInfo]
)

// PanicInfo describes a panic recovered in a supervised goroutine.
type PanicInfo struct {
	Name  string // the name passed to Go
	Value string // fmt.Sprint of the recovered value
	Stack string // stack at recovery
}

// Go spawns f in a supervised goroutine. A panic in f is recovered,
// counted, recorded (LastGoPanic) and written to stderr instead of
// killing the process — the library-side counterpart of the per-cell
// panic isolation the sweep executor already has. The name labels the
// goroutine in the panic report; keep it stable and descriptive
// ("serve.batchLoop", "bench.executor-3").
//
// Deferred cleanups inside f still run during unwinding before the
// recovery here, so WaitGroup.Done / channel-close shutdown protocols
// keep working even when f panics.
func Go(name string, f func()) {
	//lint:ignore rawgo Go is the supervised spawn primitive itself
	go func() {
		defer func() {
			if r := recover(); r != nil {
				goPanics.Add(1)
				lastPanic.Store(&PanicInfo{Name: name, Value: fmt.Sprint(r), Stack: string(debug.Stack())})
				fmt.Fprintf(os.Stderr, "par: recovered panic in goroutine %q: %v\n", name, r)
			}
		}()
		f()
	}()
}

// GoPanics returns the number of panics recovered in Go-spawned
// goroutines since process start.
func GoPanics() int64 { return goPanics.Load() }

// LastGoPanic returns the most recently recovered panic, if any.
func LastGoPanic() (PanicInfo, bool) {
	p := lastPanic.Load()
	if p == nil {
		return PanicInfo{}, false
	}
	return *p, true
}

// Runner is a unit of indexed work. Hot paths implement it on a pooled
// struct instead of passing a closure: storing a struct pointer in the
// dispatch task allocates nothing, while a capturing closure escapes to
// the heap on every call.
type Runner interface {
	Run(i int)
}

// funcRunner adapts a plain function to Runner. Func values are
// pointer-shaped, so the interface conversion itself does not allocate
// (the closure, if capturing, still does — use Runner directly on
// zero-allocation paths).
type funcRunner func(int)

func (f funcRunner) Run(i int) { f(i) }

// task is one ForEach invocation in flight: workers atomically claim
// indices until the range is exhausted. Tasks are pooled and the worker
// goroutines are persistent, so steady-state dispatch allocates nothing.
type task struct {
	r    Runner
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
}

var taskPool = NewJobPool[task]()

var (
	poolOnce sync.Once
	workCh   chan *task
)

// startWorkers spins up the persistent pool: GOMAXPROCS goroutines (at
// first use) that block on the task channel for the process lifetime.
func startWorkers() {
	w := runtime.GOMAXPROCS(0)
	workCh = make(chan *task, 8*w)
	for i := 0; i < w; i++ {
		// A panicking kernel Runner must fail fast: recovering here
		// would leave the task's WaitGroup undone and convert the crash
		// into a silent ForEach deadlock.
		//lint:ignore rawgo pool workers deliberately fail fast on kernel panics
		go func() {
			for t := range workCh {
				t.run()
			}
		}()
	}
}

// run claims and executes indices until the task is exhausted, then
// signals completion. Called by pool workers and by the submitter (which
// always participates, so a ForEach issued from inside a worker makes
// progress even when every pool worker is busy — no nesting deadlock).
func (t *task) run() {
	for {
		i := t.next.Add(1)
		if i >= t.n {
			break
		}
		t.r.Run(int(i))
	}
	t.wg.Done()
}

// ForEach runs f(i) for every i in [0, n), distributing indices over at
// most GOMAXPROCS goroutines.
func ForEach(n int, f func(i int)) {
	forEach(n, runtime.GOMAXPROCS(0), funcRunner(f))
}

// ForEachN is ForEach with an explicit worker bound. A non-positive
// bound is clamped to GOMAXPROCS: callers passing a miscomputed 0 used
// to silently lose all parallelism.
func ForEachN(n, workers int, f func(i int)) {
	forEach(n, workers, funcRunner(f))
}

// ForEachRunner is ForEach dispatching a Runner; with a pooled Runner
// the call is allocation-free.
func ForEachRunner(n int, r Runner) {
	forEach(n, runtime.GOMAXPROCS(0), r)
}

// ForEachNRunner is ForEachRunner with an explicit worker bound,
// clamped to GOMAXPROCS when non-positive.
func ForEachNRunner(n, workers int, r Runner) {
	forEach(n, workers, r)
}

func forEach(n, workers int, r Runner) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			r.Run(i)
		}
		return
	}
	poolOnce.Do(startWorkers)
	t := taskPool.Get()
	t.r, t.n = r, int64(n)
	t.next.Store(-1)
	helpers := workers - 1
	t.wg.Add(helpers + 1)
	sent := 0
	for sent < helpers {
		ok := false
		select {
		case workCh <- t:
			ok = true
		default:
		}
		if !ok {
			break // queue full: the submitter absorbs the remaining shares
		}
		sent++
	}
	for i := sent; i < helpers; i++ {
		t.wg.Done()
	}
	t.run()
	t.wg.Wait()
	t.r = nil
	taskPool.Put(t)
}

// JobPool is a typed sync.Pool for the job structs hot paths dispatch:
// Get/Put of a *T avoids both the interface-conversion allocation of
// storing the struct by value and the per-call make of a fresh job.
type JobPool[T any] struct{ p sync.Pool }

// NewJobPool returns an empty pool whose Get makes a new T when empty.
func NewJobPool[T any]() *JobPool[T] {
	return &JobPool[T]{p: sync.Pool{New: func() any { return new(T) }}}
}

func (jp *JobPool[T]) Get() *T  { return jp.p.Get().(*T) }
func (jp *JobPool[T]) Put(t *T) { jp.p.Put(t) }

// Span hands n work items out to one worker per slot. Each worker owns
// the scratch of its slot — a share the pass carved from its arena
// before dispatch, or a child arena — so no worker takes scratch of its
// own. Workers claim items one at a time, so a slow worker does not
// hold up a fixed share of the pass. Embed a Span in a pooled job whose
// Run(slot) loops over Claim, and dispatch it with ForEachSlot.
type Span struct {
	n, slots int
	next     atomic.Int64
}

// Reset readies the span for n items over min(GOMAXPROCS, n) slots (at
// least one), read at call time.
func (s *Span) Reset(n int) {
	s.n, s.slots = n, max(min(runtime.GOMAXPROCS(0), n), 1)
	s.next.Store(0)
}

// Slots returns the slot count Reset chose.
func (s *Span) Slots() int { return s.slots }

// Claim returns the next unclaimed item, or false once all are taken.
func (s *Span) Claim() (int, bool) {
	i := int(s.next.Add(1)) - 1
	return i, i < s.n
}

// ForEachSlot runs r.Run(slot) once for every slot of s, each on its
// own worker; r claims the span's items from s.
func ForEachSlot(s *Span, r Runner) {
	forEach(s.slots, s.slots, r)
}

// Chunks splits [0, n) into roughly equal [lo, hi) chunks and runs
// f(lo, hi) for each in parallel. Use when per-index work is tiny and
// the body can amortise across a contiguous range.
func Chunks(n, workers int, f func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			f(0, n)
		}
		return
	}
	per := (n + workers - 1) / workers
	ForEachN((n+per-1)/per, workers, func(ci int) {
		lo := ci * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		f(lo, hi)
	})
}
