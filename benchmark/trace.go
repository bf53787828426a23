package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. layer
// names the per-layer metric the span's self time feeds ("" for spans
// that only give structure, such as a whole op or pass).
type span struct {
	name   string
	layer  string
	tid    int
	parent int // index into tracer.spans, -1 for a root
	start  time.Duration
	end    time.Duration
}

// tracer records the benchmark's own spans around its calls into the
// program. A nil *tracer records nothing, so untraced ops run the same
// code with no recording cost beyond a nil check. Spans are kept in
// memory and written out once the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name, layer string, tid, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, tid: tid, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerTotals sums the self time of every closed span by its layer.
func (t *tracer) layerTotals() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.layer == "" || s.end < 0 {
			continue
		}
		out[s.layer] += selfTime(interval{s.start, s.end}, children[i])
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; times are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto) to dir/<workload>.trace.json and returns the path.
func (t *tracer) writeChrome(dir, workload string) (string, error) {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		e := chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		}
		if s.parent >= 0 {
			e.Args = map[string]string{"parent": t.spans[s.parent].name}
		}
		events = append(events, e)
	}
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
