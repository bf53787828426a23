package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCaptureOnce takes a real CPU+heap capture and checks the
// attribution plumbing: kind, op tag, raw bytes, files on disk.
func TestCaptureOnce(t *testing.T) {
	dir := t.TempDir()
	p := NewPlane(nil)
	p.SetOp("sweep/alexnet/conv2")
	pr := NewProfiler(ProfilerConfig{
		Dir: dir, Interval: -1, CPUDuration: 50 * time.Millisecond,
	})
	defer pr.Stop()
	p.AttachProfiler(pr)
	pr.Start() // manual mode: Start is a no-op, CaptureOnce drives it

	caps, err := pr.CaptureOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 2 || caps[0].Kind != "cpu" || caps[1].Kind != "heap" {
		t.Fatalf("captures = %+v", caps)
	}
	for _, c := range caps {
		if c.Op != "sweep/alexnet/conv2" {
			t.Errorf("%s capture op = %q", c.Kind, c.Op)
		}
		if c.Bytes <= 0 {
			t.Errorf("%s capture has no profile bytes", c.Kind)
		}
		if c.Path == "" {
			t.Errorf("%s capture has no path despite Dir", c.Kind)
			continue
		}
		if fi, err := os.Stat(c.Path); err != nil || fi.Size() == 0 {
			t.Errorf("%s profile file missing or empty: %v", c.Kind, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.pprof"))
	if len(files) != 2 {
		t.Fatalf("profile files on disk = %v", files)
	}

	if last, ok := pr.Last("heap"); !ok || last.Kind != "heap" {
		t.Fatalf("Last(heap) = %+v, %v", last, ok)
	}
	if got := len(pr.Captures()); got != 2 {
		t.Fatalf("Captures = %d, want 2", got)
	}
	pr.Stop()
	pr.Stop() // idempotent
}

// TestParseProfileBlocks feeds hand-written debug=1 dumps through the
// attribution parser.
func TestParseProfileBlocks(t *testing.T) {
	goroutines := `goroutine profile: total 7
4 @ 0x1 0x2 0x3
#	0x1	runtime.gopark+0x1	/go/src/runtime/proc.go:1
#	0x2	gpucnn/internal/serve.(*Server).batchLoop+0x2	/root/repo/internal/serve/batcher.go:10
#	0x3	gpucnn/internal/par.Go.func1+0x3	/root/repo/internal/par/par.go:45

2 @ 0x4 0x5
#	0x4	gpucnn/internal/gemm.Pack+0x4	/root/repo/internal/gemm/pack.go:9
#	0x5	main.main+0x5	/root/repo/cmd/serve/main.go:1

1 @ 0x6
#	0x6	runtime.main+0x6	/go/src/runtime/proc.go:2
`
	got := parseProfileBlocks(goroutines, false)
	if got["gpucnn/internal/serve.(*Server).batchLoop"] != 4 {
		t.Errorf("batchLoop weight = %v", got)
	}
	if got["gpucnn/internal/gemm.Pack"] != 2 {
		t.Errorf("Pack weight = %v", got)
	}
	if len(got) != 2 {
		t.Errorf("parsed frames = %v (runtime-only blocks must be dropped)", got)
	}

	heap := `heap profile: 2: 3072 [4: 8192] @ heap/1048576
1: 2048 [2: 4096] @ 0x1 0x2
#	0x1	gpucnn/internal/mem.(*Arena).Alloc+0x1	/root/repo/internal/mem/arena.go:5
#	0x2	gpucnn/internal/conv.Im2col+0x2	/root/repo/internal/conv/im2col.go:7

1: 1024 [2: 4096] @ 0x3
#	0x3	sync.(*Pool).Get+0x3	/go/src/sync/pool.go:1
`
	hg := parseProfileBlocks(heap, true)
	if hg["gpucnn/internal/mem.(*Arena).Alloc"] != 2048 {
		t.Errorf("Alloc bytes = %v", hg)
	}
	// The sync.Pool block's only frame is plumbing; it attributes to
	// nothing rather than to a misleading name.
	for fn := range hg {
		if strings.HasPrefix(fn, "sync.") {
			t.Errorf("sync frame leaked into attribution: %v", hg)
		}
	}

	top := topFrames(got, 1)
	if len(top) != 1 || top[0].Func != "gpucnn/internal/serve.(*Server).batchLoop" || top[0].Count != 4 {
		t.Errorf("topFrames = %+v", top)
	}
}

// TestProfilerPeriodic runs the real ticker loop briefly.
func TestProfilerPeriodic(t *testing.T) {
	pr := NewProfiler(ProfilerConfig{
		Interval: 60 * time.Millisecond, CPUDuration: 20 * time.Millisecond,
	})
	pr.Start()
	deadline := time.Now().Add(3 * time.Second)
	for len(pr.Captures()) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	pr.Stop()
	if len(pr.Captures()) == 0 {
		t.Fatal("periodic profiler captured nothing")
	}
}
