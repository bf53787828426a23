package gemm

import "testing"

func TestParseCacheSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"48K", 48 << 10, true},
		{"2048K", 2048 << 10, true},
		{"1M", 1 << 20, true},
		{" 32K\n", 32 << 10, true},
		{"64", 64, true},
		{"", 0, false},
		{"x", 0, false},
		{"-4K", 0, false},
	}
	for _, c := range cases {
		got, ok := parseCacheSize(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("parseCacheSize(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestAnalyticParamsDefaults(t *testing.T) {
	cases := []struct {
		caches cacheSizes
		want   blockParams
	}{
		// 32K L1d → kc = 32768/2/(4·32) = 128; 1M L2 → mc =
		// 524288/(4·128) = 1024; 8M L3 → nc capped at 4096.
		{defaultCaches, blockParams{mc: 1024, kc: 128, nc: 4096}},
		// 48K L1d → kc = 49152/2/(4·32) = 192; 2M L2 → mc =
		// 1048576/(4·192) = 1365, rounded down to 1360; 105M L3 → nc
		// capped at 4096. These are the values EXPERIMENTS.md quotes
		// for its 2-core Xeon.
		{cacheSizes{l1d: 48 << 10, l2: 2 << 20, l3: 105 << 20}, blockParams{mc: 1360, kc: 192, nc: 4096}},
	}
	for _, c := range cases {
		if got := analyticParams(c.caches); got != c.want {
			t.Errorf("analyticParams(%+v) = %+v, want %+v", c.caches, got, c.want)
		}
	}
}

func TestAnalyticParamsQuantisedAndBounded(t *testing.T) {
	cases := []cacheSizes{
		{l1d: 1 << 10, l2: 1 << 14, l3: 1 << 16},    // tiny caches
		{l1d: 1 << 21, l2: 1 << 26, l3: 1 << 30},    // huge caches
		{l1d: 48 << 10, l2: 2 << 20, l3: 105 << 20}, // a 2-core Xeon
	}
	for _, cs := range cases {
		p := analyticParams(cs)
		if p.kc < 64 || p.kc > 512 || p.kc%8 != 0 {
			t.Errorf("caches %+v: kc=%d out of [64,512] or not 8-aligned", cs, p.kc)
		}
		if p.mc < mr || p.mc > 4096 || p.mc%mr != 0 {
			t.Errorf("caches %+v: mc=%d out of [mr,4096] or not mr-aligned", cs, p.mc)
		}
		if p.nc < nr || p.nc > 4096 || p.nc%nr != 0 {
			t.Errorf("caches %+v: nc=%d out of [nr,4096] or not nr-aligned", cs, p.nc)
		}
		// The L1 working set the kc rule targets must actually fit.
		if ws := 4 * p.kc * (mr + nr); cs.l1d >= 16<<10 && ws > cs.l1d {
			t.Errorf("caches %+v: panel working set %d exceeds L1d %d", cs, ws, cs.l1d)
		}
	}
}
