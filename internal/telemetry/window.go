package telemetry

import "time"

// ring is the rotation machinery behind every instrument's windowed
// reads: a fixed array of slots, each covering one resolution interval
// of the registry clock, addressed by the absolute slot number
// floor((now−epoch)/res). Slots are reset lazily — a write or read that
// lands on a slot whose stored number is stale re-zeroes it first — so
// rotation costs nothing when the instrument is idle and there is no
// background goroutine per instrument. The owning instrument's mutex
// guards it.
//
// Capacity is ceil(window/res)+1 slots: the k = ceil(window/res) slots
// a full-window query merges (the current, partially filled slot plus
// the k−1 preceding full ones) plus one spare so an in-progress write
// to the oldest queried slot can never alias the newest. A query over
// window W therefore covers between W−res (new slot just opened) and W
// (slot about to close) of history; resolution is the quantisation
// step, not an error bar.
type ring[S any] struct {
	clock Clock
	epoch time.Time
	res   time.Duration
	win   time.Duration
	slots []ringSlot[S]
	reset func(*S) // re-zeroes a recycled slot; nil assigns the zero value
}

type ringSlot[S any] struct {
	num int64 // absolute slot number, -1 when never used
	val S
}

func newRing[S any](o Options, reset func(*S)) ring[S] {
	k := int((o.Window + o.Resolution - 1) / o.Resolution)
	r := ring[S]{
		clock: o.Clock,
		epoch: o.Clock.Now(),
		res:   o.Resolution,
		win:   o.Window,
		slots: make([]ringSlot[S], k+1),
		reset: reset,
	}
	for i := range r.slots {
		r.slots[i].num = -1
	}
	return r
}

// now returns the slot value for the current instant, recycling it if
// stale.
func (r *ring[S]) now() *S { return &r.current(r.clock.Now()).val }

func (r *ring[S]) current(now time.Time) *ringSlot[S] {
	num := int64(now.Sub(r.epoch) / r.res)
	if num < 0 {
		num = 0 // clock stepped backwards: pin to the first slot
	}
	s := &r.slots[num%int64(len(r.slots))]
	if s.num != num {
		s.num = num
		if r.reset != nil {
			r.reset(&s.val)
		} else {
			var zero S
			s.val = zero
		}
	}
	return s
}

// span clamps a query window (0 or beyond the configured window means
// the full window) and returns it with its slot count k = ceil(w/res).
func (r *ring[S]) span(w time.Duration) (time.Duration, int64) {
	if w <= 0 || w > r.win {
		w = r.win
	}
	return w, int64((w + r.res - 1) / r.res)
}

// recent visits the k most-recent slots (newest first) that are still
// live, and reports the span of history they cover.
func (r *ring[S]) recent(w time.Duration, visit func(*S)) (covered time.Duration) {
	now := r.clock.Now()
	num := r.current(now).num // rotates, so stale slots below self-identify
	_, k := r.span(w)
	for i := int64(0); i < k && num-i >= 0; i++ {
		if s := &r.slots[(num-i)%int64(len(r.slots))]; s.num == num-i {
			visit(&s.val)
		}
	}
	elapsed := now.Sub(r.epoch)
	covered = time.Duration(k-1)*r.res + elapsed - time.Duration(num)*r.res
	return min(covered, elapsed)
}

// series returns the last k per-slot values oldest→newest, zero-filled
// where a slot has aged out or never filled.
func (r *ring[S]) series(w time.Duration, get func(*S) float64) []float64 {
	num := r.current(r.clock.Now()).num
	_, k := r.span(w)
	out := make([]float64, k)
	for i := int64(0); i < k && num-i >= 0; i++ {
		if s := &r.slots[(num-i)%int64(len(r.slots))]; s.num == num-i {
			out[k-1-i] = get(&s.val)
		}
	}
	return out
}
