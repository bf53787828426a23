package workspace

import "testing"

func TestStatsCountersAndHighWater(t *testing.T) {
	ResetStats()
	var ws Arena
	_ = ws.Float32Uninit(1000)   // 4000 bytes
	_ = ws.Complex64Uninit(1000) // 8000 bytes
	s := ReadStats()
	if s.Carves != 2 {
		t.Fatalf("counters = %+v, want 2 carves", s)
	}
	if s.HighWaterBytes != 12000 {
		t.Fatalf("HighWaterBytes = %d, want 12000", s.HighWaterBytes)
	}

	// A smaller later cycle must not lower the high-water mark.
	ws.Reset()
	_ = ws.Float32Uninit(10)
	if s := ReadStats(); s.HighWaterBytes != 12000 {
		t.Fatalf("high-water dropped to %d after a small cycle", s.HighWaterBytes)
	}
}

func TestStatsHitMissClassification(t *testing.T) {
	ResetStats()
	// Drive one arena through a grow (miss), then repeat the same carve
	// pattern: the arena keeps its capacity, so every repeat is a hit.
	const n = 1 << 16
	var ws Arena
	for i := 0; i < 8; i++ {
		ws.Reset()
		_ = ws.Float32Uninit(n)
	}
	s := ReadStats()
	if s.Carves != 8 {
		t.Fatalf("Carves = %d, want 8", s.Carves)
	}
	if s.SlabGrows != 1 {
		t.Fatalf("SlabGrows = %d, want 1 (first touch only)", s.SlabGrows)
	}
	if s.Hits()+s.SlabGrows != s.Carves {
		t.Fatalf("hits(%d) + grows(%d) != carves(%d)", s.Hits(), s.SlabGrows, s.Carves)
	}
}
