package bench

import (
	"context"
	"fmt"
	"strings"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

// Claim is one of the paper's comparative findings, re-measured on the
// simulator and graded. The scorecard (`paper scorecard`) is the
// one-page answer to "did the reproduction hold?".
type Claim struct {
	ID       string
	Text     string // the paper's statement
	Paper    string // the paper's value/band
	Measured string
	Pass     bool
}

// Scorecard measures every tracked claim. It is deterministic and
// reasonably fast (a few hundred milliseconds of simulation).
func Scorecard() []Claim {
	return ScorecardCtx(context.Background(), Options{})
}

// ScorecardCtx is Scorecard with every underlying measurement fanned
// out over the parallel executor: the full cell grid the claims need
// is enumerated up front, measured concurrently, and the claims are
// then graded from the (deterministic, index-ordered) results — so the
// verdicts are identical to the serial run's.
func ScorecardCtx(ctx context.Context, opt Options) []Claim {
	base := workload.Base()
	conv1 := workload.TableI()[0].Cfg
	conv2 := workload.TableI()[1].Cfg

	// Enumerate every (implementation, configuration) cell the claims
	// read, deduplicated, and measure them all in one parallel batch.
	type mkey struct {
		impl string
		cfg  conv.Config
	}
	var tasks []Task
	index := map[mkey]int{}
	want := func(name string, cfg conv.Config) {
		k := mkey{name, cfg}
		if _, ok := index[k]; ok {
			return
		}
		e, err := impls.ByName(name)
		if err != nil {
			panic(err)
		}
		index[k] = len(tasks)
		tasks = append(tasks, Task{Engine: e, Cfg: cfg, Spec: gpusim.TeslaK40c()})
	}
	for _, name := range impls.Names() {
		want(name, base) // Figure 3 ordering + Figure 5 memory claims
	}
	for k := 3; k <= 15; k += 2 { // Figure 3d kernel crossover
		cfg := base
		cfg.Kernel = k
		want("cuDNN", cfg)
		want("fbfft", cfg)
	}
	for _, f := range []int{64, 512} { // Figure 3c filter crossover
		cfg := base
		cfg.Filters = f
		want("Theano-CorrMM", cfg)
		want("cuDNN", cfg)
	}
	for _, b := range []int{96, 128} { // Figure 3a batch multiples
		cfg := base
		cfg.Batch = b
		want("cuda-convnet2", cfg)
	}
	for _, name := range []string{"cuda-convnet2", "Theano-fft", "cuDNN", "Theano-CorrMM"} {
		want(name, conv1) // Figure 6 metric claims
	}
	want("Theano-CorrMM", conv2) // Figure 7 transfer claims
	want("Caffe", conv2)
	cells := RunCells(ctx, tasks, opt)
	measured := func(name string, cfg conv.Config) Cell {
		i, ok := index[mkey{name, cfg}]
		if !ok {
			panic(fmt.Sprintf("bench: scorecard cell %s/%v was not pre-measured", name, cfg))
		}
		return cells[i]
	}

	var claims []Claim
	add := func(id, text, paper, measured string, pass bool) {
		claims = append(claims, Claim{ID: id, Text: text, Paper: paper, Measured: measured, Pass: pass})
	}
	t := func(name string) float64 { return measured(name, base).Time.Seconds() }

	// --- Figure 2 ---
	for _, mb := range Figure2Ctx(ctx, opt) {
		add("F2/"+mb.Model,
			"convolutional layers dominate "+mb.Model+"'s training iteration",
			"86–94%",
			fmt.Sprintf("%.1f%%", mb.ConvShare*100),
			mb.ConvShare >= 0.80 && mb.ConvShare <= 0.98)
	}

	// --- Figure 3: base ordering ---
	fb, cu, tf := t("fbfft"), t("cuDNN"), t("Theano-fft")
	slowestOther := 0.0
	allOthersSlower := true
	for _, name := range impls.Names() {
		if name == "fbfft" {
			continue
		}
		v := t(name)
		if v > slowestOther {
			slowestOther = v
		}
		if v <= fb {
			allOthersSlower = false
		}
	}
	add("F3/fastest", "fbfft is the overall fastest implementation at the base configuration",
		"1.4×–9.7× over the others",
		fmt.Sprintf("%.1f×–%.1f× faster", cu/fb, slowestOther/fb),
		allOthersSlower)
	add("F3/slowest", "Theano-fft results in the slowest speed",
		"slowest everywhere",
		fmt.Sprintf("%.1f ms vs next-slowest", tf*1000),
		tf > slowestOther*0.999)
	add("F3/unrolling", "cuDNN has consistent superior performance among unrolling implementations",
		"best unrolling",
		fmt.Sprintf("cuDNN %.1f ms vs Caffe %.1f ms", cu*1000, t("Caffe")*1000),
		cu < t("Caffe") && cu < t("Torch-cunn") && cu < t("Theano-CorrMM"))

	// --- Figure 3d: kernel crossover ---
	ratioAt := func(k int) float64 {
		cfg := base
		cfg.Kernel = k
		return measured("cuDNN", cfg).Time.Seconds() / measured("fbfft", cfg).Time.Seconds()
	}
	crossover := -1
	for k := 3; k <= 15; k += 2 {
		if ratioAt(k) >= 1 {
			crossover = k
			break
		}
	}
	add("F3d/crossover", "for kernels smaller than 7 cuDNN outperforms fbfft; beyond that fbfft wins",
		"crossover at k≈7",
		fmt.Sprintf("fbfft first wins at k=%d", crossover),
		crossover >= 5 && crossover <= 9)
	adv3 := 1 / ratioAt(3)
	add("F3d/smallk", "the speed advantage of cuDNN over fbfft at small kernels",
		"1.21×–2.62×",
		fmt.Sprintf("%.2f× at k=3", adv3),
		adv3 >= 1.1 && adv3 <= 3.0)

	// --- Figure 3c: CorrMM vs cuDNN ---
	at := func(name string, f int) float64 {
		cfg := base
		cfg.Filters = f
		return measured(name, cfg).Time.Seconds()
	}
	corrWins512 := at("Theano-CorrMM", 512) < at("cuDNN", 512)
	cuWins64 := at("cuDNN", 64) < at("Theano-CorrMM", 64)
	add("F3c/corrmm", "Theano-CorrMM slightly outperforms cuDNN for large filter numbers",
		"crossover above ~160 filters",
		fmt.Sprintf("CorrMM wins at f=512: %v; cuDNN wins at f=64: %v", corrWins512, cuWins64),
		corrWins512 && cuWins64)

	// --- Figure 3a: cuda-convnet2 batch multiples ---
	perImage := func(b int) float64 {
		cfg := base
		cfg.Batch = b
		return measured("cuda-convnet2", cfg).Time.Seconds() / float64(b)
	}
	add("F3a/cc2", "cuda-convnet2 performs well only for mini-batch multiples of 128",
		"multiples of 128 favoured",
		fmt.Sprintf("per-image cost %.3f ms at b=128 vs %.3f ms at b=96", perImage(128)*1000, perImage(96)*1000),
		perImage(128) < perImage(96))

	// --- Figure 4 ---
	shares := Figure4()
	g := GEMMShare(shares["Caffe"])
	add("F4/gemm", "GEMM operations are the essence of unrolling convolutional layers",
		"80–87% of runtime",
		fmt.Sprintf("%.1f%% in Caffe", g*100),
		g >= 0.65 && g <= 0.95)

	// --- Figure 5 ---
	mem := func(name string) int64 { return measured(name, base).PeakBytes }
	ordered := mem("cuda-convnet2") < mem("Torch-cunn") &&
		mem("Torch-cunn") < mem("Caffe") &&
		mem("Caffe") < mem("Theano-fft") &&
		mem("Theano-fft") < mem("fbfft")
	add("F5/order", "cuda-convnet2 is the most memory-efficient; fbfft requires the most, followed by Theano-fft",
		"cc2 < Torch < Caffe ≈ cuDNN < Theano-fft < fbfft",
		fmt.Sprintf("%d < %d < %d < %d < %d MB",
			mem("cuda-convnet2")>>20, mem("Torch-cunn")>>20, mem("Caffe")>>20,
			mem("Theano-fft")>>20, mem("fbfft")>>20),
		ordered)

	// --- Figure 6 ---
	m6 := func(name string) Cell { return measured(name, conv1) }
	cc2occ := m6("cuda-convnet2").Metrics.AchievedOccupancy * 100
	add("F6/cc2occ", "the achieved occupancy in cuda-convnet2 is lower than the average level",
		"14–22%",
		fmt.Sprintf("%.1f%%", cc2occ),
		cc2occ >= 12 && cc2occ <= 24)
	tfm := m6("Theano-fft").Metrics
	add("F6/tfocc", "Theano-fft has higher occupancy but worse performance",
		"39–59% occupancy",
		fmt.Sprintf("%.1f%% occupancy, slowest runtime", tfm.AchievedOccupancy*100),
		tfm.AchievedOccupancy*100 >= 35 && tfm.AchievedOccupancy*100 <= 62)
	add("F6/tfshm", "Theano-fft has the lowest shared-memory efficiency (bank conflicts)",
		"8.16–20%",
		fmt.Sprintf("%.1f%%", tfm.SharedEff),
		tfm.SharedEff >= 6 && tfm.SharedEff <= 22)
	add("F6/tfwee", "Theano-fft suffers warp divergence",
		"WEE 66–81%",
		fmt.Sprintf("%.1f%%", tfm.WarpExecEff),
		tfm.WarpExecEff >= 64 && tfm.WarpExecEff <= 83)
	cuM := m6("cuDNN").Metrics
	add("F6/cudnnshm", "cuDNN has the highest shared-memory efficiency",
		"over 130%",
		fmt.Sprintf("%.1f%%", cuM.SharedEff),
		cuM.SharedEff > 125)
	corrGld := m6("Theano-CorrMM").Metrics.GldEff
	add("F6/corrgld", "Theano-CorrMM has very low global-load efficiency",
		"11.64–15.79%",
		fmt.Sprintf("%.1f%%", corrGld),
		corrGld >= 10 && corrGld <= 18)

	// --- Figure 7 ---
	spike := measured("Theano-CorrMM", conv2).TransferShare
	add("F7/spike", "Theano-CorrMM on Conv2 has a significant data-transfer overhead",
		"more than 60%",
		fmt.Sprintf("%.1f%%", spike*100),
		spike >= 0.5)
	hidden := measured("Caffe", conv2).TransferShare
	add("F7/hidden", "cuDNN, Caffe and fbfft have the lowest transfer share",
		"≈0%",
		fmt.Sprintf("Caffe %.2f%%", hidden*100),
		hidden < 0.005)

	// --- Table II ---
	tbl := TableIICtx(ctx, opt)
	wantRegs := map[string]int{"Caffe": 86, "cuDNN": 80, "Torch-cunn": 84,
		"Theano-CorrMM": 72, "cuda-convnet2": 116, "fbfft": 106, "Theano-fft": 2}
	exact := len(tbl) == len(wantRegs)
	for _, r := range tbl {
		if wantRegs[r.Impl] != r.RegsPerThread {
			exact = false
		}
	}
	add("T2/regs", "register usage per thread matches Table II",
		"86/80/84/72/116/106/2",
		fmt.Sprintf("%d implementations matched", len(tbl)),
		exact)

	return claims
}

// RenderScorecard formats the claims as a table with a summary line.
func RenderScorecard(claims []Claim) string {
	var b strings.Builder
	passed := 0
	fmt.Fprintf(&b, "%-14s %-6s %-28s %-38s %s\n", "Claim", "Status", "Paper", "Measured", "Statement")
	for _, c := range claims {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		} else {
			passed++
		}
		fmt.Fprintf(&b, "%-14s %-6s %-28s %-38s %s\n", c.ID, status, c.Paper, c.Measured, c.Text)
	}
	fmt.Fprintf(&b, "\n%d/%d claims reproduced\n", passed, len(claims))
	return b.String()
}
