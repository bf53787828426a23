// Command perfbench is the repository's end-to-end benchmark: five
// workloads over training, inference, paper reproduction and serving,
// each measured in its own process. An untraced run prints the
// end-to-end metrics; a traced run prints the per-layer metrics, taken
// from the benchmark's own spans around its calls into the program and
// from per-layer probes. BENCHMARK.json at the repository root lists
// both sets with their units and regression bounds.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh -workload all -seed 1
//	bash benchmark/run.sh -workload cifarnet_train_cudnn -seed 3 -seconds 15 -trace 1
//	bash benchmark/run.sh -workload all -seed 1 -json a.jsonl
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
//
// The last line of a single-workload run is one JSON object with the
// keys correct, attempted, failed and metrics. The process exits
// non-zero when a correctness check fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"gpucnn/internal/models"
)

// session is one set-up workload, ready to measure.
type session interface {
	// check runs the correctness gates that guard the measured run.
	check(r *report)
	// measure runs the workload for the window. With a non-nil tracer
	// the run is traced and also sets the per-layer metrics.
	measure(window time.Duration, tr *tracer, r *report)
	close()
}

// workloadDef builds one workload's session from the seed. Set-up ends
// after the workload's two warm-up ops.
type workloadDef struct {
	name  string
	setup func(seed int64) (session, error)
}

// workloads is the order -workload all runs them in. BENCHMARK.json
// gives why each was chosen.
var workloads = []workloadDef{
	{"cifarnet_train_cudnn", func(seed int64) (session, error) {
		return newModelSession(modelSpec{engine: "cuDNN", build: models.CIFARNet, batch: 32, train: true}, seed)
	}},
	{"cifarnet_train_fbfft", func(seed int64) (session, error) {
		return newModelSession(modelSpec{engine: "fbfft", build: models.CIFARNet, batch: 16, train: true}, seed)
	}},
	{"alexnet_infer_autotuned", func(seed int64) (session, error) {
		return newModelSession(modelSpec{engine: "Autotuned", build: models.AlexNet, batch: 1}, seed)
	}},
	{"paper_figures", newFiguresSession},
	{"serve_fleet", newServeSession},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have all, %s)", name, strings.Join(names, ", "))
}

// env stamps every report with what the numbers depend on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readEnv(seed int64) env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Commit: "unknown", Seed: seed}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && e.Commit != "unknown" {
			e.Commit += "+modified"
		}
	}
	return e
}

// report collects one workload run.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	WindowS   float64            `json:"window_s"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes"`
	Env       env                `json:"env"`
	// OpMs are the wall times of the untraced ops and RefMs the
	// reference kernel times around them, for the op workloads.
	OpMs  []float64 `json:"op_ms,omitempty"`
	RefMs []float64 `json:"ref_ms,omitempty"`
}

func (r *report) set(name string, v float64) { r.Metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check or op.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.note("FAIL "+format, args...)
}

const (
	// specPath is where the metric definitions are, relative to the
	// repository root the benchmark runs from.
	specPath = "BENCHMARK.json"
	// setups is how many cold set-ups setup_s is the median of.
	setups = 3
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	traceDir string
	// setups is how many cold set-ups setup_s is the median of: this
	// process's own and setups-1 more, each in a fresh child process.
	setups int
}

// runWorkload sets the workload up, checks it, measures it and returns
// the report.
func runWorkload(cfg runConfig) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r := &report{Workload: w.name, Trace: cfg.trace, WindowS: cfg.window.Seconds(), Correct: true,
		Metrics: map[string]float64{}, Env: readEnv(cfg.seed)}
	// The child set-ups run first and one at a time, so each starts as
	// cold as this process and none shares memory or CPU with another.
	var raw, adj []float64
	for i := 1; i < cfg.setups; i++ {
		d, a, err := childSetup(cfg)
		if err != nil {
			return nil, err
		}
		raw, adj = append(raw, d), append(adj, a)
	}
	sess, d, a, err := timedSetup(w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer sess.close()
	raw, adj = append(raw, d.Seconds()), append(adj, a.Seconds())
	r.set("setup_s", median(adj))
	r.note("setup_s is the median of %d cold set-ups, adjusted to the reference speed: %s s (wall %s s)",
		len(adj), formatFloats(adj, "%.3f"), formatFloats(raw, "%.3f"))
	sess.check(r)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	sess.measure(cfg.window, tr, r)
	if rss, err := peakRSS(); err == nil {
		r.set("peak_rss_mb", rss)
	} else {
		r.note("peak RSS unknown: %v", err)
	}
	if tr != nil {
		path, err := tr.writeChrome(cfg.traceDir, w.name)
		if err != nil {
			return nil, err
		}
		r.note("trace written to %s", path)
	}
	return r, nil
}

func formatFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// peakRSS returns the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// childTimeout bounds a child process beyond its measured window.
const childTimeout = 170 * time.Second

// setupPrefix starts the line a -setup-only child reports its wall and
// adjusted set-up times on.
const setupPrefix = "setup_s "

// timedSetup sets the workload up and returns the session with the
// set-up's wall time and its time adjusted to the reference speed, by
// the median of three reference kernel runs just before it.
func timedSetup(w workloadDef, seed int64) (sess session, wall, adjusted time.Duration, err error) {
	refs := []float64{ms(hostRef()), ms(hostRef()), ms(hostRef())}
	ref := time.Duration(median(refs) * float64(time.Millisecond))
	t := time.Now()
	sess, err = w.setup(seed)
	wall = time.Since(t)
	return sess, wall, adjust(wall, ref), err
}

// childSetup runs the workload's set-up in a fresh process and returns
// its wall and adjusted times in seconds.
func childSetup(cfg runConfig) (wall, adjusted float64, err error) {
	out, err := runChild(nil, childTimeout, "-setup-only", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed))
	if err != nil {
		return 0, 0, fmt.Errorf("set-up child: %w", err)
	}
	last := lastLine(out)
	v, ok := strings.CutPrefix(last, setupPrefix)
	if !ok {
		return 0, 0, fmt.Errorf("set-up child printed %q", last)
	}
	if _, err := fmt.Sscan(v, &wall, &adjusted); err != nil {
		return 0, 0, fmt.Errorf("set-up child printed %q: %w", last, err)
	}
	return wall, adjusted, nil
}

// runChild runs this program again with args and returns its standard
// output, copying it line by line to echo when echo is not nil. The
// child is killed after the timeout.
func runChild(echo *os.File, timeout time.Duration, args ...string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		buf.Write(sc.Bytes())
		buf.WriteByte('\n')
		if echo != nil {
			fmt.Fprintln(echo, sc.Text())
		}
	}
	err = cmd.Wait()
	if err == nil {
		err = sc.Err()
	}
	return buf.String(), err
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.TrimSpace(lines[len(lines)-1])
}

// appendJSON appends the report as one line to path.
func appendJSON(path string, r *report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds  = flag.Int("seconds", 15, "length of the measured window, in seconds")
		trace    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory a traced run writes its Chrome trace to")
		jsonOut  = flag.String("json", "", "append each workload's full report, with its environment stamp, as one JSON line to this file")
		compare  = flag.Bool("compare", false, "compare two files written by -json: perfbench -compare A.jsonl B.jsonl")
		setup    = flag.Bool("setup-only", false, "set the workload up, print the time it took and exit (used for setup_s)")
	)
	flag.Parse()
	if *setup {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		sess, wall, adjusted, err := timedSetup(w, *seed)
		if err != nil {
			fatal(err)
		}
		sess.close()
		fmt.Printf("%s%.6f %.6f\n", setupPrefix, wall.Seconds(), adjusted.Seconds())
		return
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two files"))
		}
		ok, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	cfg := runConfig{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, traceDir: *traceDir, setups: setups}
	if *name == "all" {
		if !runAll(cfg, *jsonOut) {
			os.Exit(1)
		}
		return
	}
	e := readEnv(cfg.seed)
	fmt.Printf("perfbench %s seed=%d window=%v trace=%v\n", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	fmt.Printf("env nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n", e.NumCPU, e.GOMAXPROCS, e.CPU, e.Go, e.Commit)
	r, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	for _, n := range r.Notes {
		fmt.Println(n)
	}
	res, err := spec.result(r)
	if err != nil {
		fatal(err)
	}
	for _, d := range spec.printed(cfg.trace) {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("metric %-28s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if *jsonOut != "" {
		if err := appendJSON(*jsonOut, r); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, so each has its
// own peak RSS and none inherits the process-wide caches (planner
// decisions, FFT plans, workspace pool, GEMM tuning) another warmed.
// It reports whether every run passed its checks.
func runAll(cfg runConfig, jsonOut string) bool {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	ok := true
	var lines []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(int(cfg.window.Seconds())), "-trace", trace,
			"-trace-dir", cfg.traceDir}
		if jsonOut != "" {
			args = append(args, "-json", jsonOut)
		}
		out, err := runChild(os.Stdout, cfg.window+childTimeout, args...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			ok = false
			continue
		}
		lines = append(lines, fmt.Sprintf("%-24s %s", w.name, lastLine(out)))
	}
	fmt.Println("summary")
	for _, l := range lines {
		fmt.Println(l)
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
