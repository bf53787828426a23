// Fixtures for the lockheld analyzer: blocking operations under held
// mutexes (positives), lock-free or default-guarded variants
// (negatives), //lint:ignore suppression, and lock-array acquisition
// ordering.
package a

import (
	"os"
	"sync"
	"time"
)

type S struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	ch    chan int
	wg    sync.WaitGroup
	locks []sync.Mutex
}

// SendLocked blocks on a channel send inside the critical section.
func (s *S) SendLocked() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send may block while s.mu is held`
	s.mu.Unlock()
}

// SendUnlocked releases first: clean.
func (s *S) SendUnlocked() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

// RecvDeferred: defer keeps the lock held through the receive.
func (s *S) RecvDeferred() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive may block while s.mu is held`
}

// WaitRLocked: the read side of an RWMutex counts as held.
func (s *S) WaitRLocked() {
	s.rw.RLock()
	s.wg.Wait() // want `sync.WaitGroup.Wait may block while s.rw is held`
	s.rw.RUnlock()
}

// WaitUnlocked: no lock, no finding.
func (s *S) WaitUnlocked() {
	s.wg.Wait()
}

// TrySend: select with a default clause never blocks.
func (s *S) TrySend() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

// BlockingSelect: no default clause, so the select parks the goroutine.
func (s *S) BlockingSelect(done chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-done: // want `select without default may block while s.mu is held`
	case s.ch <- 1:
	}
}

// BranchMerge: released on one branch only — still may-held after the
// merge, which is the conservative answer the check needs.
func (s *S) BranchMerge(c bool) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
	}
	s.ch <- 1 // want `channel send may block while s.mu is held`
}

// EarlyReturn: released on every path before the send — clean.
func (s *S) EarlyReturn(c bool) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.ch <- 1
}

// RangeLocked: ranging over a channel blocks between elements.
func (s *S) RangeLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want `range over channel may block while s.mu is held`
		_ = v
	}
}

// SleepLocked: time.Sleep is an intrinsic blocking call.
func (s *S) SleepLocked() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep may block while s.mu is held`
	s.mu.Unlock()
}

// ReadLocked: file I/O under the lock.
func (s *S) ReadLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = os.ReadFile("weights.bin") // want `os.ReadFile may block while s.mu is held`
}

// SpawnLocked: the goroutine body neither inherits the creator's held
// set nor charges its blocking to the creator.
func (s *S) SpawnLocked() {
	s.mu.Lock()
	go func() {
		s.ch <- 1
	}()
	s.mu.Unlock()
}

// LockedClosure: a function literal is analyzed on its own, so a lock
// taken inside it guards its own body.
func (s *S) LockedClosure() func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.wg.Wait() // want `sync.WaitGroup.Wait may block while s.mu is held`
	}
}

// drain blocks; callers holding a lock inherit the finding.
func (s *S) drain() {
	s.wg.Wait()
}

// CloseLocked: transitive blocking through a same-package callee.
func (s *S) CloseLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drain() // want `call to drain may block \(sync.WaitGroup.Wait\) while s.mu is held`
}

// IgnoredWait: suppressed with a reasoned directive.
func (s *S) IgnoredWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockheld this mutex exists to serialise exactly this wait
	s.wg.Wait()
}

// OrderOK: constant indices in increasing order.
func (s *S) OrderOK() {
	s.locks[0].Lock()
	s.locks[1].Lock()
	s.locks[1].Unlock()
	s.locks[0].Unlock()
}

// OrderBad: constant indices in decreasing order deadlock against
// OrderOK running concurrently.
func (s *S) OrderBad() {
	s.locks[1].Lock()
	s.locks[0].Lock() // want `s.locks\[0\] acquired while s.locks\[1\] is held`
	s.locks[0].Unlock()
	s.locks[1].Unlock()
}

// OrderUnknown: non-constant indices cannot be proven increasing.
func (s *S) OrderUnknown(i, j int) {
	s.locks[i].Lock()
	s.locks[j].Lock() // want `s.locks\[j\] acquired while s.locks\[i\] is held`
	s.locks[j].Unlock()
	s.locks[i].Unlock()
}
