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
	p := analyticParams(defaultCaches)
	// 32K L1d → kc = 32768/2/(4·16) = 256; 1M L2 → mc = 524288/(4·256)
	// = 512; 8M L3 → nc capped at 4096.
	if p.kc != 256 || p.mc != 512 || p.nc != 4096 {
		t.Fatalf("analyticParams(defaults) = %+v, want {mc:512 kc:256 nc:4096}", p)
	}
}

func TestAnalyticParamsQuantisedAndBounded(t *testing.T) {
	cases := []cacheSizes{
		{l1d: 1 << 10, l2: 1 << 14, l3: 1 << 16},    // tiny caches
		{l1d: 1 << 21, l2: 1 << 26, l3: 1 << 30},    // huge caches
		{l1d: 48 << 10, l2: 2 << 20, l3: 105 << 20}, // this CI machine
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

func TestShapeClassBuckets(t *testing.T) {
	if shapeClass(256, 256, 256) != shapeClass(129, 200, 255) {
		t.Error("shapes in the same log2 buckets got different classes")
	}
	if shapeClass(256, 256, 256) == shapeClass(512, 256, 256) {
		t.Error("shapes in different m buckets share a class")
	}
	if shapeClass(64, 128, 256) == shapeClass(256, 128, 64) {
		t.Error("shapeClass is permutation-blind; m/n/k must be distinguished")
	}
}

func TestKCCandidates(t *testing.T) {
	got := kcCandidates(256, 768)
	want := []int{128, 256, 512}
	if len(got) != len(want) {
		t.Fatalf("kcCandidates(256,768) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kcCandidates(256,768) = %v, want %v", got, want)
		}
	}
	// Shallow reductions collapse the candidates (and disable probing).
	if got := kcCandidates(256, 100); len(got) != 1 || got[0] != 96 {
		t.Fatalf("kcCandidates(256,100) = %v, want [96]", got)
	}
}

func TestTuneForCachesProbeDecision(t *testing.T) {
	// Small problems never probe: the analytic baseline comes back.
	small := tuneFor(8, 8, 8)
	if small != baseParams {
		t.Fatalf("small-problem tuneFor = %+v, want baseline %+v", small, baseParams)
	}
	// Large problems probe once per shape class and cache the winner.
	p1 := tuneFor(256, 256, 256)
	p2 := tuneFor(255, 255, 255) // same log2 class, above the volume gate
	if p1 != p2 {
		t.Fatalf("same-class tuneFor disagrees: %+v vs %+v", p1, p2)
	}
	if p1.kc < 64 || p1.kc > 512 || p1.kc%8 != 0 {
		t.Fatalf("probed kc=%d out of range", p1.kc)
	}
	probeMu.RLock()
	_, cached := probeCache[shapeClass(256, 256, 256)]
	probeMu.RUnlock()
	if !cached {
		t.Fatal("probe result not cached for the shape class")
	}
}

func TestProbeDisabledReturnsBaseline(t *testing.T) {
	probeMu.Lock()
	probeDisabled = true
	probeMu.Unlock()
	defer func() {
		probeMu.Lock()
		probeDisabled = false
		probeMu.Unlock()
	}()
	if p := tuneFor(512, 512, 512); p != baseParams {
		t.Fatalf("probeDisabled tuneFor = %+v, want baseline %+v", p, baseParams)
	}
}
