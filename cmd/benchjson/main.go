// Command benchjson converts `go test -bench` output into a compact
// JSON snapshot. Repeated runs of the same benchmark (from -count=N)
// are collapsed to their median, so the snapshot is robust to scheduler
// noise without needing benchstat.
//
// Usage:
//
//	go test ./internal/gemm -bench . -count=5 | go run ./cmd/benchjson -out BENCH_kernels.json
//	go run ./cmd/benchjson -in bench.txt -out BENCH_kernels.json
//	go run ./cmd/benchjson -in bench.txt -compare BENCH_kernels.json -regress 1.15
//
// With -compare the freshly parsed medians are diffed against a prior
// snapshot: one row per benchmark with the new/old ns ratio and the
// one-sided p-value of a rank-sum test on the two sides' per-run ns/op.
// A benchmark flags the run (non-zero exit), which is what `make
// bench-kernels-compare` gates on, when its ratio exceeds the -regress
// threshold and the rank-sum test also finds it slower at the 5% level.
// A row over the threshold that the test does not confirm is reported
// as "noise". Where a side carries no per-run values (a snapshot
// written before they were recorded) or too few for the test to reach
// 5%, the ratio alone decides, as it always did.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark line's parsed fields.
type result struct {
	iters   int64
	nsPerOp float64
	metrics map[string]float64 // extra "value unit" pairs (GFLOPS, B/op, ...)
}

// Summary is the per-benchmark aggregate written to JSON.
type Summary struct {
	Name      string             `json:"name"`
	Runs      int                `json:"runs"`
	NsPerOp   float64            `json:"ns_per_op_median"`
	NsMin     float64            `json:"ns_per_op_min"`
	NsMax     float64            `json:"ns_per_op_max"`
	NsRuns    []float64          `json:"ns_per_op_runs,omitempty"` // every run, in input order
	Metrics   map[string]float64 `json:"metrics,omitempty"`        // medians
	AllocsPct *float64           `json:"allocs_per_op,omitempty"`
}

// Snapshot is the output document. NProc and GOMAXPROCS stamp the host
// the snapshot was taken on: absolute numbers only compare between
// snapshots with the same stamp.
type Snapshot struct {
	Note       string    `json:"note"`
	GoOS       string    `json:"goos,omitempty"`
	GoArch     string    `json:"goarch,omitempty"`
	CPU        string    `json:"cpu,omitempty"`
	NProc      int       `json:"nproc,omitempty"`
	GOMAXPROCS int       `json:"gomaxprocs,omitempty"`
	Benchmarks []Summary `json:"benchmarks"`
}

// newSnapshot starts a snapshot stamped with this host's CPU count and
// GOMAXPROCS, which the `go test -bench` run feeding it shares when both
// run in one environment, as the Makefile's bench targets do.
func newSnapshot(note string) Snapshot {
	return Snapshot{Note: note, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseLine parses one benchmark result line, returning the raw
// benchmark name (GOMAXPROCS suffix intact — see normalizeNames).
func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil || fields[3] != "ns/op" {
		return "", result{}, false
	}
	r := result{iters: iters, nsPerOp: ns, metrics: map[string]float64{}}
	// The tail is "value unit" pairs. A field that doesn't parse as a
	// number advances by ONE to resynchronise — advancing by two would
	// misalign every subsequent pair.
	for i := 4; i+1 < len(fields); {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			i++
			continue
		}
		// Metrics are keyed by unit; a second metric with the same unit
		// (two custom ns columns, say) must not silently clobber the
		// first, so later ones get a position-qualified key.
		key := fields[i+1]
		for k := 2; ; k++ {
			if _, taken := r.metrics[key]; !taken {
				break
			}
			key = fmt.Sprintf("%s#%d", fields[i+1], k)
		}
		r.metrics[key] = v
		i += 2
	}
	return fields[0], r, true
}

// trailingInt splits a trailing "-<int>" off the name, returning the
// base and the integer (-1 when there is none).
func trailingInt(name string) (string, int) {
	idx := strings.LastIndex(name, "-")
	if idx <= 0 {
		return name, -1
	}
	n, err := strconv.Atoi(name[idx+1:])
	if err != nil || n < 0 {
		return name, -1
	}
	return name[:idx], n
}

// normalizeNames strips the trailing -N GOMAXPROCS suffix — but only
// when it provably is one. `go test` under GOMAXPROCS=1 emits no
// suffix at all, so a name genuinely ending in -<int> (a sub-benchmark
// like BenchmarkGEMM/size-256) must not be truncated and merged with
// its siblings. The suffix is stripped when it equals this process's
// GOMAXPROCS, or when every line carries the same suffix across at
// least two distinct benchmark names (the signature of a shared
// GOMAXPROCS, possibly from another machine). A suffix is always kept
// when its stripped name is also present bare: under `-cpu 1,2` the
// bare name is the one-proc run and the suffixed one the two-proc run,
// and merging them would mix two proc counts into one median.
func normalizeNames(order []string, byName map[string][]result, gomaxprocs int) ([]string, map[string][]result) {
	shared, allShare := -1, len(order) > 1
	for _, name := range order {
		_, n := trailingInt(name)
		if n < 0 || (shared >= 0 && n != shared) {
			allShare = false
			break
		}
		shared = n
	}
	newOrder := make([]string, 0, len(order))
	newByName := make(map[string][]result, len(byName))
	for _, name := range order {
		base, n := trailingInt(name)
		stripped := name
		if _, bare := byName[base]; n >= 0 && !bare && (n == gomaxprocs || allShare) {
			stripped = base
		}
		if _, seen := newByName[stripped]; !seen {
			newOrder = append(newOrder, stripped)
		}
		newByName[stripped] = append(newByName[stripped], byName[name]...)
	}
	return newOrder, newByName
}

// compareRow is one line of the -compare delta table.
type compareRow struct {
	Name   string
	OldNs  float64
	NewNs  float64
	Ratio  float64 // new/old; <1 is faster, >1 is slower
	P      float64 // one-sided rank-sum p that new is slower; -1 when not tested
	Status string  // "faster", "ok", "noise", "REGRESSION", "new", "removed"
}

// alpha is the rank-sum test's one-sided significance level.
const alpha = 0.05

// rankSumP returns the exact one-sided p-value of the Mann–Whitney
// rank-sum test that the values in b tend to be larger than those in a:
// the share of all ways to split the pooled values into groups of
// len(a) and len(b) whose U statistic (pairs with b above a, ties
// counting half) is at least the observed one. It returns -1 when even
// the most extreme split cannot reach alpha, so the test has no say.
func rankSumP(a, b []float64) float64 {
	n, m := len(a), len(b)
	// ways[i][j][u] counts orderings of i values of a and j of b with
	// U = u; the largest value is either a's (adding nothing) or b's
	// (lying above all i of a's).
	ways := make([][][]float64, n+1)
	for i := range ways {
		ways[i] = make([][]float64, m+1)
		for j := range ways[i] {
			ways[i][j] = make([]float64, i*j+1)
			if i == 0 || j == 0 {
				ways[i][j][0] = 1
				continue
			}
			for u := range ways[i][j] {
				if u <= (i-1)*j {
					ways[i][j][u] += ways[i-1][j][u]
				}
				if u >= i {
					ways[i][j][u] += ways[i][j-1][u-i]
				}
			}
		}
	}
	dist := ways[n][m]
	total := 0.0
	for _, w := range dist {
		total += w
	}
	if total == 0 || 1/total > alpha {
		return -1
	}
	u2 := 0 // twice U, so a tie counts one
	for _, x := range a {
		for _, y := range b {
			switch {
			case y > x:
				u2 += 2
			case y == x:
				u2++
			}
		}
	}
	tail := 0.0
	for u, w := range dist {
		if 2*u >= u2 {
			tail += w
		}
	}
	return tail / total
}

// compareSnapshots diffs new medians against an old snapshot. A
// benchmark whose new/old ns ratio exceeds threshold is a regression
// unless the rank-sum test on the per-run values says the shift could
// be noise (status "noise"); without a usable test the ratio alone
// decides. Benchmarks present on only one side are reported
// informationally and never flag the run.
func compareSnapshots(oldSnap, newSnap Snapshot, threshold float64) (rows []compareRow, regressed bool) {
	oldByName := map[string]Summary{}
	for _, s := range oldSnap.Benchmarks {
		oldByName[s.Name] = s
	}
	seen := map[string]bool{}
	for _, s := range newSnap.Benchmarks {
		seen[s.Name] = true
		o, ok := oldByName[s.Name]
		if !ok {
			rows = append(rows, compareRow{Name: s.Name, NewNs: s.NsPerOp, Status: "new"})
			continue
		}
		row := compareRow{Name: s.Name, OldNs: o.NsPerOp, NewNs: s.NsPerOp, P: rankSumP(o.NsRuns, s.NsRuns)}
		if o.NsPerOp > 0 {
			row.Ratio = s.NsPerOp / o.NsPerOp
		}
		switch {
		case row.Ratio > threshold && row.P >= alpha:
			row.Status = "noise"
		case row.Ratio > threshold:
			row.Status = "REGRESSION"
			regressed = true
		case row.Ratio < 1:
			row.Status = "faster"
		default:
			row.Status = "ok"
		}
		rows = append(rows, row)
	}
	for _, s := range oldSnap.Benchmarks {
		if !seen[s.Name] {
			rows = append(rows, compareRow{Name: s.Name, OldNs: s.NsPerOp, Status: "removed"})
		}
	}
	return rows, regressed
}

// renderCompare prints the delta table.
func renderCompare(w io.Writer, rows []compareRow, threshold float64) {
	fmt.Fprintf(w, "%-48s %14s %14s %8s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "p", "status")
	for _, r := range rows {
		oldNs, newNs, ratio, p := "-", "-", "-", "-"
		if r.OldNs > 0 {
			oldNs = strconv.FormatFloat(r.OldNs, 'f', 0, 64)
		}
		if r.NewNs > 0 {
			newNs = strconv.FormatFloat(r.NewNs, 'f', 0, 64)
		}
		if r.Ratio > 0 {
			ratio = strconv.FormatFloat(r.Ratio, 'f', 3, 64)
		}
		if r.P >= 0 && r.Ratio > 0 {
			p = strconv.FormatFloat(r.P, 'f', 3, 64)
		}
		fmt.Fprintf(w, "%-48s %14s %14s %8s %8s  %s\n", r.Name, oldNs, newNs, ratio, p, r.Status)
	}
	fmt.Fprintf(w, "(ratio = new/old median ns/op; p = one-sided rank-sum p that new is slower, - when untested;\n"+
		" ratio >%.2f flags a regression when p < %.2f or untested, and reads noise otherwise)\n", threshold, alpha)
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "output JSON file (default stdout)")
	note := flag.String("note", "kernel microbenchmark snapshot (medians over -count runs)", "note field for the snapshot")
	compare := flag.String("compare", "", "prior snapshot JSON to diff against (delta mode)")
	regress := flag.Float64("regress", 1.15, "new/old ns ratio above which a benchmark is a regression")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		defer f.Close()
		src = f
	}

	snap := newSnapshot(*note)
	byName := map[string][]result{}
	var order []string
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		if name, r, ok := parseLine(line); ok {
			if _, seen := byName[name]; !seen {
				order = append(order, name)
			}
			byName[name] = append(byName[name], r)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	order, byName = normalizeNames(order, byName, runtime.GOMAXPROCS(0))

	for _, name := range order {
		rs := byName[name]
		s := Summary{Name: name, Runs: len(rs), Metrics: map[string]float64{}}
		var nss []float64
		metricVals := map[string][]float64{}
		for _, r := range rs {
			nss = append(nss, r.nsPerOp)
			for u, v := range r.metrics {
				metricVals[u] = append(metricVals[u], v)
			}
		}
		s.NsRuns = append([]float64(nil), nss...)
		sort.Float64s(nss)
		s.NsPerOp = median(nss)
		s.NsMin = nss[0]
		s.NsMax = nss[len(nss)-1]
		for u, vs := range metricVals {
			if u == "allocs/op" {
				m := median(vs)
				s.AllocsPct = &m
				continue
			}
			s.Metrics[u] = median(vs)
		}
		if len(s.Metrics) == 0 {
			s.Metrics = nil
		}
		snap.Benchmarks = append(snap.Benchmarks, s)
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		var oldSnap Snapshot
		if err := json.Unmarshal(raw, &oldSnap); err != nil {
			log.Fatalf("benchjson: parsing %s: %v", *compare, err)
		}
		rows, regressed := compareSnapshots(oldSnap, snap, *regress)
		renderCompare(os.Stdout, rows, *regress)
		if *out != "" {
			writeSnapshot(snap, *out)
		}
		if regressed {
			log.Fatalf("benchjson: regression(s) above %.2fx vs %s", *regress, *compare)
		}
		return
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	writeSnapshot(snap, *out)
}

func writeSnapshot(snap Snapshot, path string) {
	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(snap.Benchmarks), path)
}
