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
//
// Completion counts items, not helpers: the submitter waits until every
// index has run, whoever ran it. Helpers are not queued per task;
// workers take tasks off the active list, and the submitter takes its
// task off the list once every index is claimed. A helper that is not
// needed by then is never started, so nothing a worker has yet to pick
// up can hold a Wait, at any pool size or nesting depth. A worker that
// takes a task just as its last index is claimed finds nothing to run
// and leaves the completion count alone; refs keeps such a late helper
// from ever seeing the task recycled.
type task struct {
	r     Runner
	n     int64
	next  atomic.Int64
	items sync.WaitGroup // one count per index not yet run
	refs  atomic.Int32   // the submitter plus every worker that took the task

	// Guarded by poolMu.
	want int   // helpers still wanted; the task is on the active list while > 0
	link *task // next task on the active list
}

var taskPool = NewJobPool[task]()

var (
	poolOnce sync.Once
	poolMu   sync.Mutex
	poolCond = sync.NewCond(&poolMu)
	active   *task // tasks wanting helpers, newest first; guarded by poolMu
)

// startWorkers spins up the persistent pool: GOMAXPROCS goroutines (at
// first use) that wait for tasks for the process lifetime.
func startWorkers() {
	for i := runtime.GOMAXPROCS(0); i > 0; i-- {
		// A panicking kernel Runner must fail fast: recovering here
		// would leave the task's items undone and convert the crash
		// into a silent ForEach deadlock.
		//lint:ignore rawgo pool workers deliberately fail fast on kernel panics
		go work()
	}
}

// work is a pool worker: it helps the newest task that still wants
// helpers, then looks for the next.
func work() {
	for {
		poolMu.Lock()
		for active == nil {
			poolCond.Wait()
		}
		t := active
		t.want--
		if t.want == 0 {
			active = t.link
		}
		t.refs.Add(1)
		poolMu.Unlock()
		t.run()
		t.release()
	}
}

// run claims and executes indices until the task is exhausted, then
// marks the items it ran done. Called by pool workers and by the
// submitter, which always participates, so a ForEach issued from inside
// a worker makes progress even when every pool worker is busy.
func (t *task) run() {
	ran := 0
	for {
		i := t.next.Add(1)
		if i >= t.n {
			break
		}
		t.r.Run(int(i))
		ran++
	}
	if ran > 0 {
		t.items.Add(-ran)
	}
}

// release drops one hold on the task; the last returns it to the pool.
func (t *task) release() {
	if t.refs.Add(-1) == 0 {
		t.r = nil
		taskPool.Put(t)
	}
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
	t.items.Add(n)
	t.refs.Store(1)
	poolMu.Lock()
	t.want, t.link, active = workers-1, active, t
	poolMu.Unlock()
	for i := 1; i < workers; i++ {
		poolCond.Signal()
	}
	t.run()
	// Every index is claimed: no helper is wanted any more.
	poolMu.Lock()
	if t.want > 0 {
		for p := &active; *p != nil; p = &(*p).link {
			if *p == t {
				*p = t.link
				break
			}
		}
		t.want = 0
	}
	poolMu.Unlock()
	t.items.Wait()
	t.release()
}

// JobPool is a typed free list for the job structs hot paths dispatch:
// Get/Put of a *T avoids the per-call make of a fresh job. It is not a
// sync.Pool because a sync.Pool drops its contents at every GC and
// re-allocates its per-P array after one, so a GC landing inside a pass
// would cost that pass allocations. Once the list has held as many jobs
// as were ever out at once, Get and Put never allocate.
type JobPool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// NewJobPool returns an empty pool whose Get makes a new T when empty.
func NewJobPool[T any]() *JobPool[T] { return new(JobPool[T]) }

// Get returns a pooled job, or a new zero T when none is free.
func (jp *JobPool[T]) Get() *T {
	jp.mu.Lock()
	defer jp.mu.Unlock()
	n := len(jp.free)
	if n == 0 {
		return new(T)
	}
	t := jp.free[n-1]
	jp.free = jp.free[:n-1]
	return t
}

// Put returns t to the pool.
func (jp *JobPool[T]) Put(t *T) {
	jp.mu.Lock()
	jp.free = append(jp.free, t)
	jp.mu.Unlock()
}

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
