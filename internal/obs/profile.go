package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpucnn/internal/par"
)

// Frame is one attributed stack frame in a capture summary.
type Frame struct {
	Func  string `json:"func"`
	Count int64  `json:"count"` // goroutine samples (cpu) or in-use bytes (heap)
}

// Capture is one profile taken by the Profiler: the raw pprof protobuf
// (written to Path when a directory is configured) plus a parsed top-N
// frame attribution and the attached plane's active operation at
// capture time, so a hot profile can be traced back to the serve batch
// that produced it.
type Capture struct {
	Kind  string    `json:"kind"` // "cpu" or "heap"
	Op    string    `json:"op,omitempty"`
	At    time.Time `json:"at"`
	Path  string    `json:"path,omitempty"`
	Bytes int       `json:"bytes"` // raw profile size
	Top   []Frame   `json:"top,omitempty"`
}

// ProfilerConfig tunes a Profiler. Zero values mean: a 30 s capture
// interval (Interval < 0 means manual CaptureOnce only), 200 ms CPU
// profile duration, top 5 frames, last 16 captures kept in memory, and
// no profile files written (Dir empty).
type ProfilerConfig struct {
	Dir         string
	Interval    time.Duration
	CPUDuration time.Duration
	TopN        int
	Keep        int
}

// cpuProfileMu serialises CPU profiling process-wide: the runtime
// allows only one active CPU profile.
var cpuProfileMu sync.Mutex

// Profiler periodically captures CPU and heap profiles via
// runtime/pprof. Construction only configures; Start launches the
// periodic loop (a no-op in manual mode) and every NewProfiler must
// reach Stop (enforced by the obsstop analyzer). CaptureOnce works in
// both modes. Plane.AttachProfiler lists its captures on the dashboard
// and tags them with the plane's active operation.
type Profiler struct {
	cfg ProfilerConfig

	mu       sync.Mutex
	plane    *Plane
	captures []Capture
	seq      int
	started  bool
	stopped  bool

	stop chan struct{}
	done chan struct{}
}

// NewProfiler builds a profiler. Pair with Stop.
func NewProfiler(cfg ProfilerConfig) *Profiler {
	if cfg.Interval == 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 200 * time.Millisecond
	}
	if cfg.TopN <= 0 {
		cfg.TopN = 5
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 16
	}
	return &Profiler{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the periodic capture loop. In manual mode (negative
// interval) it is a no-op; call CaptureOnce directly. Idempotent.
func (p *Profiler) Start() {
	p.mu.Lock()
	if p.started || p.stopped {
		p.mu.Unlock()
		return
	}
	p.started = true
	manual := p.cfg.Interval <= 0
	p.mu.Unlock()
	if manual {
		close(p.done)
		return
	}
	par.Go("obs.profiler", p.loop)
}

func (p *Profiler) loop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if _, err := p.CaptureOnce(); err != nil {
				fmt.Fprintf(os.Stderr, "obs: profile capture failed: %v\n", err)
			}
		}
	}
}

// Stop halts the loop (if running) and waits for it. Idempotent.
func (p *Profiler) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	started := p.started
	p.mu.Unlock()
	close(p.stop)
	if started {
		<-p.done
	}
}

// CaptureOnce takes one CPU profile (blocking for the configured CPU
// duration of real time) and one heap snapshot, records both, and
// returns them. The CPU attribution comes from a goroutine-profile
// sample taken mid-capture — the protobuf itself needs external
// tooling, but the sampled top frames answer "where was the process"
// without any dependency.
func (p *Profiler) CaptureOnce() ([]Capture, error) {
	p.mu.Lock()
	plane := p.plane
	p.mu.Unlock()
	op, now := plane.Op(), plane.Clock().Now()

	// CPU: profile for the configured duration, sampling goroutine
	// stacks halfway through for the top-N attribution.
	cpuProfileMu.Lock()
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		cpuProfileMu.Unlock()
		return nil, fmt.Errorf("obs: start cpu profile: %w", err)
	}
	//lint:ignore lockheld cpuProfileMu exists to serialise exactly this capture window
	time.Sleep(p.cfg.CPUDuration / 2)
	var gorBuf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&gorBuf, 1)
	//lint:ignore lockheld second half of the capture window the mutex serialises
	time.Sleep(p.cfg.CPUDuration / 2)
	pprof.StopCPUProfile()
	cpuProfileMu.Unlock()

	cpu := Capture{
		Kind: "cpu", Op: op, At: now,
		Bytes: cpuBuf.Len(),
		Top:   topFrames(parseProfileBlocks(gorBuf.String(), false), p.cfg.TopN),
	}

	// Heap: the debug=1 text form is self-describing enough to
	// attribute in-use bytes per allocation site; the protobuf form
	// (debug=0) goes to disk for pprof proper.
	var heapTxt bytes.Buffer
	_ = pprof.Lookup("heap").WriteTo(&heapTxt, 1)
	var heapBin bytes.Buffer
	_ = pprof.Lookup("heap").WriteTo(&heapBin, 0)
	heap := Capture{
		Kind: "heap", Op: op, At: now,
		Bytes: heapBin.Len(),
		Top:   topFrames(parseProfileBlocks(heapTxt.String(), true), p.cfg.TopN),
	}

	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	if p.cfg.Dir != "" {
		if err := os.MkdirAll(p.cfg.Dir, 0o755); err == nil {
			cpu.Path = filepath.Join(p.cfg.Dir, fmt.Sprintf("cpu-%04d.pprof", seq))
			_ = os.WriteFile(cpu.Path, cpuBuf.Bytes(), 0o644)
			heap.Path = filepath.Join(p.cfg.Dir, fmt.Sprintf("heap-%04d.pprof", seq))
			_ = os.WriteFile(heap.Path, heapBin.Bytes(), 0o644)
		}
	}

	p.mu.Lock()
	p.captures = append(p.captures, cpu, heap)
	if len(p.captures) > p.cfg.Keep {
		p.captures = p.captures[len(p.captures)-p.cfg.Keep:]
	}
	p.mu.Unlock()
	return []Capture{cpu, heap}, nil
}

// Captures returns the retained captures, oldest first.
func (p *Profiler) Captures() []Capture {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Capture(nil), p.captures...)
}

// Last returns the most recent capture of the given kind.
func (p *Profiler) Last(kind string) (Capture, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.captures) - 1; i >= 0; i-- {
		if p.captures[i].Kind == kind {
			return p.captures[i], true
		}
	}
	return Capture{}, false
}

// parseProfileBlocks parses the debug=1 text form shared by the
// runtime's goroutine and heap profiles: blocks headed by
//
//	N @ 0x... 0x...            (goroutine: N identical goroutines)
//	N: B [Nt: Bt] @ 0x...      (heap: N objects, B in-use bytes)
//
// followed by "#\t0xADDR\tfunc+0xOFF\tfile:line" frame lines. Each
// block is attributed to its innermost frame that is not runtime or
// sync plumbing, weighted by N (goroutine) or B (heap bytes).
func parseProfileBlocks(text string, heap bool) map[string]int64 {
	weights := map[string]int64{}
	var weight int64
	attributed := true // no block open yet
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "goroutine profile:") ||
			strings.HasPrefix(trimmed, "heap profile:") {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			if idx := strings.Index(trimmed, " @ "); idx >= 0 {
				head := trimmed[:idx]
				weight, attributed = blockWeight(head, heap)
			}
			continue
		}
		if attributed {
			continue
		}
		// "#\t0x...\tfunc+0x...\tfile:line"
		fields := strings.Fields(trimmed[1:])
		if len(fields) < 2 {
			continue
		}
		fn := fields[1]
		if i := strings.LastIndex(fn, "+0x"); i >= 0 {
			fn = fn[:i]
		}
		if boringFrame(fn) {
			continue
		}
		weights[fn] += weight
		attributed = true
	}
	return weights
}

// blockWeight extracts the block's weight from its header: the leading
// count for goroutine blocks ("12"), the in-use bytes for heap blocks
// ("3: 4096 [7: 9216]"). ok=false (weight 0) skips the block.
func blockWeight(head string, heap bool) (w int64, skip bool) {
	fields := strings.Fields(head)
	if len(fields) == 0 {
		return 0, true
	}
	if !heap {
		n, err := strconv.ParseInt(fields[0], 10, 64)
		return n, err != nil || n == 0
	}
	if len(fields) < 2 {
		return 0, true
	}
	b, err := strconv.ParseInt(fields[1], 10, 64)
	return b, err != nil || b == 0
}

// boringFrame filters frames that never identify the workload.
func boringFrame(fn string) bool {
	for _, p := range []string{"runtime.", "runtime/", "sync.", "sync/", "internal/poll.", "time.Sleep", "os/signal."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// topFrames sorts the attribution map and keeps the n heaviest frames.
func topFrames(weights map[string]int64, n int) []Frame {
	out := make([]Frame, 0, len(weights))
	for fn, w := range weights {
		out = append(out, Frame{Func: fn, Count: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Func < out[j].Func
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
