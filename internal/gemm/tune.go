package gemm

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Cache-derived blocking parameters. The packed kernel's loop nest is
// governed by three extents, derived once per process from the
// detected cache hierarchy per the BLIS analytical model (Low et al.,
// "Analytical Modeling Is Enough for High-Performance BLIS"), with no
// timing:
//
//   - kc: reduction-panel depth. One packed B micro-panel (kc×nr) plus
//     one packed A micro-panel (kc×mr) must stay L1-resident across the
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
	// (kc×mr) should together fill about half of L1d, leaving the rest
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

// baseParams is the blocking of every product, derived from the
// detected caches at first use. It depends on the host's caches alone,
// never on how loaded the host was when the process started.
var baseParams = sync.OnceValue(func() blockParams {
	return analyticParams(detectCaches())
})
