package gemm

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpucnn/internal/workspace"
)

// Runtime autotuning of the cache-blocking parameters. The packed
// kernel's loop nest is governed by three extents, derived at startup
// from the detected cache hierarchy per the BLIS analytical model
// (Low et al., "Analytical Modeling Is Enough for High-Performance
// BLIS") and then refined once per problem-shape class by a measured
// probe:
//
//   - kc: reduction-panel depth. One packed B micro-panel (kc×nr) plus
//     one packed A micro-panel (mr×kc) must stay L1-resident across the
//     whole micro-kernel reduction.
//   - mc: rows per packed A block. The mc×kc block is what the macro
//     loop keeps L2-resident while it streams B panels over it.
//   - nc: columns per packed B block. The kc×nc block stays in L3 (or
//     a bounded arena carve when L3 is effectively unbounded, as on
//     large shared virtual machines) while the m loop re-reads it.
type blockParams struct {
	mc, kc, nc int
}

// cacheSizes holds the detected per-core data-cache capacities in
// bytes.
type cacheSizes struct {
	l1d, l2, l3 int
}

// defaultCaches are the safe fallbacks when detection fails: a small
// modern x86 core (32 KB L1d, 1 MB L2, 8 MB L3). Underestimating cache
// only costs a little reuse; overestimating causes thrashing, so the
// defaults are conservative.
var defaultCaches = cacheSizes{l1d: 32 << 10, l2: 1 << 20, l3: 8 << 20}

// clampBlock bounds a derived extent and rounds it down to a multiple
// of the register-tile quantum.
func clampBlock(v, lo, hi, quantum int) int {
	if v > hi {
		v = hi
	}
	if v < lo {
		v = lo
	}
	return v / quantum * quantum
}

// analyticParams derives (mc, kc, nc) from cache sizes per the BLIS
// rules, quantised to the micro-tile extents.
func analyticParams(cs cacheSizes) blockParams {
	// L1: the B micro-panel (kc×nr) and the streaming A micro-panel
	// (mr×kc) should together fill about half of L1d, leaving the rest
	// for the C tile and incidental lines.
	kc := cs.l1d / 2 / (4 * (mr + nr))
	kc = clampBlock(kc, 64, 512, 8)
	// L2: the packed A block (mc×kc) takes about half of L2 so B panels
	// streaming through the other half don't evict it.
	mc := cs.l2 / 2 / (4 * kc)
	mc = clampBlock(mc, mr, 4096, mr)
	// L3: the packed B block (kc×nc) would take about half of L3, but
	// it is also a workspace carve-out, so cap it at a few MB — beyond
	// that the m loop's reuse no longer pays for the footprint.
	nc := cs.l3 / 2 / (4 * kc)
	nc = clampBlock(nc, nr, 4096, nr)
	return blockParams{mc: mc, kc: kc, nc: nc}
}

// parseCacheSize parses sysfs "size" values like "48K", "2048K", "1M".
func parseCacheSize(s string) (int, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	mult := 1
	switch s[len(s)-1] {
	case 'K', 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M', 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G', 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}

// detectCaches reads the per-core cache hierarchy from Linux sysfs,
// falling back to defaultCaches for any level it cannot read. On
// non-Linux hosts the sysfs reads fail and the defaults win — safe,
// just not tuned.
func detectCaches() cacheSizes {
	cs := defaultCaches
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d", i)
		level, err := os.ReadFile(base + "/level")
		if err != nil {
			break
		}
		typ, err := os.ReadFile(base + "/type")
		if err != nil {
			continue
		}
		ty := strings.TrimSpace(string(typ))
		if ty == "Instruction" {
			continue
		}
		raw, err := os.ReadFile(base + "/size")
		if err != nil {
			continue
		}
		size, ok := parseCacheSize(string(raw))
		if !ok {
			continue
		}
		switch strings.TrimSpace(string(level)) {
		case "1":
			cs.l1d = size
		case "2":
			cs.l2 = size
		case "3":
			cs.l3 = size
		}
	}
	return cs
}

var (
	tuneOnce     sync.Once
	baseParams   blockParams
	smallCutoff  int
	detectedInfo cacheSizes
)

// tuneInit derives the analytic baseline once per process.
func tuneInit() {
	tuneOnce.Do(func() {
		detectedInfo = detectCaches()
		baseParams = analyticParams(detectedInfo)
		// Small-problem cutoff (legacy-kernel crossover), derived from
		// the tuned blocking instead of a hard-coded constant: one
		// kc-deep panel pass costs ~kc·(mr+nr) elements of packing
		// traffic, so a problem needs a multiple of that many
		// multiply-adds before packing amortises. The SIMD micro-kernel
		// amortises far sooner than the scalar one because the packed
		// side gets faster while the legacy kernel does not.
		scale := 8
		if useFMA {
			scale = 2
		}
		smallCutoff = scale * baseParams.kc * (mr + nr)
	})
}

// Blocking reports the autotuned analytic blocking parameters
// (mc, kc, nc) and the detected cache sizes they were derived from.
// Exposed for benchmarks and the experiment reports.
func Blocking() (mc, kc, nc, l1d, l2, l3 int) {
	tuneInit()
	return baseParams.mc, baseParams.kc, baseParams.nc,
		detectedInfo.l1d, detectedInfo.l2, detectedInfo.l3
}

// packedThreshold returns the m·n·k extent below which the legacy
// kernels win (packing cannot amortise). Derived from the autotuned
// blocking; see tuneInit.
func packedThreshold() int {
	tuneInit()
	return smallCutoff
}

// routesToPacked reports whether an m×n×k problem goes through the
// packed kernel (as opposed to the legacy fallback). Split out so the
// crossover is pinned by a regression test.
func routesToPacked(m, n, k int) bool {
	return m*n*k >= packedThreshold()
}

// --- measured-probe refinement ---
//
// The analytic parameters assume dense square-ish operands. Skinny or
// deep shapes (im2col GEMMs are both) sometimes prefer a shallower or
// deeper kc, so the first large GEMM of each shape class times a small
// bounded probe over kc candidates and caches the winner. One probe
// per class per process; everything after hits the cache.

// shapeClass buckets a problem by the ceil-log2 of each extent, so all
// "Conv3-forward-sized" calls share one tuning decision.
func shapeClass(m, n, k int) int {
	return log2Ceil(m)<<16 | log2Ceil(n)<<8 | log2Ceil(k)
}

func log2Ceil(v int) int {
	b := 0
	for (1 << b) < v {
		b++
	}
	return b
}

const (
	// probeMinVolume gates probing to problems big enough that a few
	// milliseconds of one-shot measurement is noise (≥ ~16 MFLOP).
	probeMinVolume = 1 << 23
	// probe sub-problem caps: enough work to rank candidates, bounded
	// so a probe never costs more than a few milliseconds.
	probeMaxM = 128
	probeMaxN = 512
	probeMaxK = 768
)

var (
	probeMu    sync.RWMutex
	probeCache = map[int]blockParams{}
	// probeDisabled short-circuits the measured probe (tests use it to
	// pin deterministic parameters).
	probeDisabled bool
)

// tuneFor returns the blocking parameters for an m×n×k problem:
// the analytic baseline, or the probe-refined parameters for large
// shapes (computed on first sight of the shape class, cached after).
func tuneFor(m, n, k int) blockParams {
	tuneInit()
	if probeDisabled || m*n*k < probeMinVolume {
		return baseParams
	}
	class := shapeClass(m, n, k)
	probeMu.RLock()
	p, ok := probeCache[class]
	probeMu.RUnlock()
	if ok {
		return p
	}
	p = probeClass(m, n, k)
	probeMu.Lock()
	// First writer wins; concurrent probes of the same class measured
	// the same candidates, so any winner is fine.
	if prev, ok := probeCache[class]; ok {
		p = prev
	} else {
		probeCache[class] = p
	}
	probeMu.Unlock()
	return p
}

// probeClass times the packed kernel on a capped synthetic sub-problem
// for each kc candidate and returns the analytic params with the
// winning kc (mc re-derived so the A block still fits L2).
func probeClass(m, n, k int) blockParams {
	mp, np, kp := m, n, k
	if mp > probeMaxM {
		mp = probeMaxM
	}
	if np > probeMaxN {
		np = probeMaxN
	}
	if kp > probeMaxK {
		kp = probeMaxK
	}
	candidates := kcCandidates(baseParams.kc, kp)
	best := baseParams
	if len(candidates) < 2 {
		return best
	}
	// Zeroed operands keep the probe off subnormal slow paths and make
	// candidate timings comparable; both arenas are dropped on return.
	var bufs, scratch workspace.Arena
	a, b, c := bufs.Float32(mp*kp), bufs.Float32(kp*np), bufs.Float32(mp*np)
	bestT := time.Duration(1<<63 - 1)
	for _, kc := range candidates {
		cand := withKC(baseParams, kc)
		var min time.Duration
		for rep := 0; rep < 2; rep++ {
			scratch.Reset()
			t0 := time.Now()
			packedGEMMParams(&scratch, 1, 1, matA(a, kp), matB(b, np), c, mp, np, kp, cand)
			el := time.Since(t0)
			if rep == 0 || el < min {
				min = el
			}
		}
		if min < bestT {
			bestT, best = min, cand
		}
	}
	return best
}

// withKC rebuilds params around a candidate kc, re-deriving mc from L2
// and nc from the panel cap so footprints stay constant.
func withKC(base blockParams, kc int) blockParams {
	mc := detectedInfo.l2 / 2 / (4 * kc)
	mc = clampBlock(mc, mr, 4096, mr)
	nc := detectedInfo.l3 / 2 / (4 * kc)
	nc = clampBlock(nc, nr, 4096, nr)
	return blockParams{mc: mc, kc: kc, nc: nc}
}

// kcCandidates proposes the analytic kc and its half/double neighbours,
// clamped to the probe's reduction depth and deduplicated.
func kcCandidates(kc, kMax int) []int {
	raw := [3]int{kc / 2, kc, kc * 2}
	out := make([]int, 0, 3)
	for _, v := range raw {
		v = clampBlock(v, 64, 512, 8)
		if v > kMax {
			v = clampBlock(kMax, 8, 512, 8)
			if v == 0 {
				continue
			}
		}
		dup := false
		for _, o := range out {
			if o == v {
				dup = true
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}
