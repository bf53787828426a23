package obs

import (
	"math"
	"sync"
	"testing"
	"time"

	"gpucnn/internal/telemetry"
)

// These tests pin the windowed reads of telemetry's instruments that
// the monitors and the dashboard are built on, through a registry on a
// fake clock.

func testRegistry(fc *telemetry.FakeClock, win, res time.Duration) *telemetry.Registry {
	return telemetry.NewRegistryWith(telemetry.Options{Clock: fc, Window: win, Resolution: res})
}

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// TestCounterWindowRotation pins the ring semantics: sums drop off
// exactly when their slot ages past the window, and a query at an
// exact slot boundary (new slot just opened, zero partial fill) still
// covers the k−1 preceding full slots.
func TestCounterWindowRotation(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, 10*time.Second, time.Second)
	c := r.Counter("reqs", nil)

	// One Add of 1 at the start of each of the first 5 seconds.
	for i := 0; i < 5; i++ {
		c.Add(1)
		fc.Advance(time.Second)
	}
	// Now exactly at t0+5s, a fresh slot boundary: slots 0..4 hold one
	// each, the current slot 5 is empty.
	if got := c.Sum(0); got != 5 {
		t.Fatalf("full-window Sum = %v, want 5", got)
	}
	// A 3 s query merges k=3 slots: the just-opened empty slot 5 plus
	// slots 4 and 3 — at an exact boundary it covers w−res of history.
	if got := c.Sum(3 * time.Second); got != 2 {
		t.Fatalf("Sum(3s) at a boundary = %v, want 2 (slots 3,4 + empty partial)", got)
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %v, want 5", got)
	}

	// Advance to t0+12s: the full-window query merges slots 3..12, so
	// the adds in slots 0–2 have aged out.
	fc.Advance(7 * time.Second)
	if got := c.Sum(0); got != 2 {
		t.Fatalf("Sum after aging = %v, want 2 (adds at 3s,4s)", got)
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("Value must never age: %v, want 5", got)
	}

	// One resolution step further ages out the add at 3s.
	fc.Advance(time.Second)
	if got := c.Sum(0); got != 1 {
		t.Fatalf("Sum one slot later = %v, want 1", got)
	}

	// Far future: everything aged out, total intact.
	fc.Advance(time.Hour)
	if got := c.Sum(0); got != 0 {
		t.Fatalf("Sum after an idle hour = %v, want 0", got)
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("Value after an idle hour = %v, want 5", got)
	}
}

// TestCounterExactBoundaryReuse drives the clock far enough that ring
// indices wrap and verifies a stale slot is re-zeroed on reuse rather
// than leaking its old sum into the new interval.
func TestCounterExactBoundaryReuse(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, 3*time.Second, time.Second) // 4 slots
	c := r.Counter("wrap", nil)

	c.Add(100) // slot 0
	// Jump exactly one full ring ahead: slot 4 reuses slot 0's array cell.
	fc.Advance(4 * time.Second)
	c.Add(1)
	if got := c.Sum(0); got != 1 {
		t.Fatalf("Sum after exact ring wrap = %v, want 1 (the 100 must not resurface)", got)
	}
	if got := c.Value(); got != 101 {
		t.Fatalf("Value = %v, want 101", got)
	}
}

func TestCounterRate(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, 10*time.Second, time.Second)
	c := r.Counter("rate", nil)

	// 10 events over 2 s of history — rate must divide by the covered
	// 2 s, not the configured 10 s window.
	c.Add(4)
	fc.Advance(time.Second)
	c.Add(6)
	fc.Advance(time.Second)
	if got := c.Rate(0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Rate over 2s of history = %v, want 5/s", got)
	}
}

func TestGaugeWindow(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, 10*time.Second, time.Second)
	g := r.Gauge("depth", nil)

	g.Set(3)
	g.Set(9)
	g.Set(4)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value = %v, want 4", got)
	}
	if got := g.Max(0); got != 9 {
		t.Fatalf("Max = %v, want 9", got)
	}
	g.Add(-4)
	if got := g.Value(); got != 0 {
		t.Fatalf("Value after Add(-4) = %v, want 0", got)
	}

	// The peak ages out with its slot; the current value does not.
	fc.Advance(time.Hour)
	if got := g.Value(); got != 0 {
		t.Fatalf("Value after idle = %v, want 0", got)
	}
	g.Set(2)
	if got := g.Max(0); got != 2 {
		t.Fatalf("Max after aging = %v, want 2", got)
	}
}

// TestHistogramEmptyWindow pins the empty-window semantics the SLO
// layer depends on: NaN quantiles, zero FractionAbove, zero Count.
func TestHistogramEmptyWindow(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, 10*time.Second, time.Second)
	h := r.Histogram("lat", nil, []float64{0.001, 0.01, 0.1})

	if got := h.Window(0).Quantile(0.99); !math.IsNaN(got) {
		t.Fatalf("empty-window quantile = %v, want NaN", got)
	}
	if got := h.Window(0).FractionAbove(0.01); got != 0 {
		t.Fatalf("empty-window FractionAbove = %v, want 0", got)
	}

	h.Observe(0.05)
	if got := h.Window(0).Quantile(0.99); got != 0.1 {
		t.Fatalf("quantile = %v, want 0.1", got)
	}

	// Observations age out with their slots: the window goes back to
	// the empty semantics, not to a stale last value.
	fc.Advance(time.Hour)
	if got := h.Window(0).Count; got != 0 {
		t.Fatalf("Count after aging = %v, want 0", got)
	}
	if got := h.Window(0).Quantile(0.99); !math.IsNaN(got) {
		t.Fatalf("aged-out quantile = %v, want NaN", got)
	}
}

// TestHistogramRollingQuantile checks that the windowed p99 tracks the
// recent distribution, not the lifetime one: a burst of slow requests
// lifts it, and sliding past the burst drops it again.
func TestHistogramRollingQuantile(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, 10*time.Second, time.Second)
	h := r.Histogram("lat", nil, []float64{0.001, 0.002, 0.004, 0.008, 0.016})

	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	if got := h.Window(0).Quantile(0.99); got != 0.001 {
		t.Fatalf("baseline p99 = %v, want 0.001", got)
	}
	fc.Advance(time.Second)
	for i := 0; i < 100; i++ {
		h.Observe(0.016)
	}
	if got := h.Window(0).Quantile(0.99); got != 0.016 {
		t.Fatalf("p99 during burst = %v, want 0.016", got)
	}
	// 11 s later both bursts are out of the 10 s window; only fresh
	// fast traffic remains.
	fc.Advance(11 * time.Second)
	h.Observe(0.001)
	if got := h.Window(0).Quantile(0.99); got != 0.001 {
		t.Fatalf("p99 after burst aged out = %v, want 0.001", got)
	}
}

func TestCounterSeries(t *testing.T) {
	fc := telemetry.NewFakeClock(t0)
	r := testRegistry(fc, 4*time.Second, time.Second)
	c := r.Counter("s", nil)
	c.Add(1)
	fc.Advance(time.Second)
	c.Add(2)
	fc.Advance(time.Second)
	c.Add(3)
	got := c.Series(0)
	want := []float64{0, 1, 2, 3} // k=4 slots, oldest first; slot before t0 empty
	if len(got) != len(want) {
		t.Fatalf("Series len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
}

// TestNilSafety: every plane method must be safe on a nil plane, so
// optional wiring needs no conditionals, and a nil plane still hands
// out the default registry to write into.
func TestNilSafety(t *testing.T) {
	var p *Plane
	p.SetOp("x")
	if p.Op() != "" {
		t.Fatal("nil plane Op")
	}
	p.Section("s", func() map[string]any { return nil })
	p.Watch(nil)
	p.Unwatch(nil)
	p.AttachProfiler(nil)
	if p.Registry() != telemetry.Default() {
		t.Fatal("nil plane must write to the default registry")
	}
	if !telemetry.IsWall(p.Clock()) {
		t.Fatal("nil plane clock must be the wall clock")
	}
	snap := p.Dash()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil plane Dash must be empty")
	}
}

// TestWindowRace hammers one counter, gauge and histogram from
// concurrent writers while a reader snapshots — the -race gate for the
// ring machinery.
func TestWindowRace(t *testing.T) {
	r := telemetry.NewRegistryWith(telemetry.Options{Window: time.Second, Resolution: 50 * time.Millisecond})
	p := NewPlane(r)
	c := r.Counter("c", nil)
	g := r.Gauge("g", nil)
	h := r.Histogram("h", nil, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) * 1e-6)
			}
		}()
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Sum(0)
			_ = c.Rate(0)
			_ = g.Max(0)
			_ = h.Window(0).Quantile(0.99)
			_ = h.Series(0)
			_ = p.Dash()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := c.Value(); got != 4*3000 {
		t.Fatalf("Value = %v, want %v", got, 4*3000)
	}
}
