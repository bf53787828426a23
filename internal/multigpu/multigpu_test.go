package multigpu

import (
	"testing"

	"gpucnn/internal/conv"
	"gpucnn/internal/gpusim"
	"gpucnn/internal/impls"
	"gpucnn/internal/workload"
)

func TestClusterConstruction(t *testing.T) {
	c := New(4, gpusim.TeslaK40c())
	if c.Size() != 4 || len(c.Devices) != 4 {
		t.Fatalf("cluster size %d", c.Size())
	}
}

func TestNewPanicsOnZeroDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, gpusim.TeslaK40c())
}

func TestAllReduceTime(t *testing.T) {
	spec := gpusim.TeslaK40c()
	single := New(1, spec)
	if single.AllReduceTime(100<<20) != 0 {
		t.Fatal("single device needs no all-reduce")
	}
	two := New(2, spec)
	four := New(4, spec)
	t2 := two.AllReduceTime(100 << 20)
	t4 := four.AllReduceTime(100 << 20)
	if t2 <= 0 || t4 <= 0 {
		t.Fatal("all-reduce must take time")
	}
	// Ring volume 2(N-1)/N approaches 2 as N grows: t4 > t2 but < 2*t2.
	if t4 <= t2 || t4 > 2*t2 {
		t.Fatalf("ring scaling wrong: t2=%v t4=%v", t2, t4)
	}
}

func TestDataParallelSpeedup(t *testing.T) {
	// A compute-heavy convolution: data parallelism should pay off.
	cfg := workload.Base()
	cfg.Batch = 128
	results, err := ScalingStudy(impls.NewCuDNN(), cfg, gpusim.TeslaK40c(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Speedup < 0.99 || results[0].Speedup > 1.01 {
		t.Fatalf("1-device speedup = %v, want 1.0", results[0].Speedup)
	}
	if results[1].Speedup < 1.4 {
		t.Fatalf("2-device speedup = %.2f, want ≥1.4", results[1].Speedup)
	}
	if results[2].Speedup <= results[1].Speedup {
		t.Fatalf("4 devices (%.2f×) should beat 2 (%.2f×)", results[2].Speedup, results[1].Speedup)
	}
	// Strong scaling is sub-linear: communication + shard inefficiency.
	if results[2].Speedup > 4 {
		t.Fatalf("4-device speedup %.2f× super-linear", results[2].Speedup)
	}
}

func TestCommunicationGrowsWithWeights(t *testing.T) {
	// A weight-heavy, compute-light shape (1×1 spatial output via big
	// kernel) must show a larger communication fraction than the
	// conv-heavy base config — the effect that drove reference [18] to
	// model-parallel FC layers.
	c := New(4, gpusim.TeslaK40c())
	convHeavy := workload.Base()
	convHeavy.Batch = 128
	weightHeavy := conv.Config{Batch: 128, Input: 13, Channels: 384, Filters: 384, Kernel: 3, Stride: 1}
	rConv, err := c.Iteration(impls.NewCuDNN(), convHeavy)
	if err != nil {
		t.Fatal(err)
	}
	rW, err := c.Iteration(impls.NewCuDNN(), weightHeavy)
	if err != nil {
		t.Fatal(err)
	}
	if rW.CommFraction <= rConv.CommFraction {
		t.Fatalf("weight-heavy comm fraction %.3f should exceed conv-heavy %.3f",
			rW.CommFraction, rConv.CommFraction)
	}
}

func TestBatchMustShardEvenly(t *testing.T) {
	c := New(3, gpusim.TeslaK40c())
	cfg := workload.Base() // batch 64, not divisible by 3
	if _, err := c.Iteration(impls.NewCuDNN(), cfg); err == nil {
		t.Fatal("uneven shard should error")
	}
}

func TestShardShapeLimitsPropagate(t *testing.T) {
	// cuda-convnet2 needs batch % 32 == 0 per shard: a global batch of
	// 64 across 4 devices gives shards of 16 — unsupported.
	c := New(4, gpusim.TeslaK40c())
	cfg := workload.Base()
	if _, err := c.Iteration(impls.NewCudaConvnet2(), cfg); err == nil {
		t.Fatal("shard of 16 should violate cuda-convnet2's batch constraint")
	}
	// With a global batch of 128 the 32-image shards work.
	cfg.Batch = 128
	if _, err := c.Iteration(impls.NewCudaConvnet2(), cfg); err != nil {
		t.Fatalf("32-image shards should work: %v", err)
	}
}

func TestResultAccounting(t *testing.T) {
	c := New(2, gpusim.TeslaK40c())
	cfg := workload.Base()
	r, err := c.Iteration(impls.NewFbfft(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != r.ComputeTime+r.AllReduce {
		t.Fatal("Total must equal compute + all-reduce")
	}
	if r.ShardBatch != 32 || r.Devices != 2 {
		t.Fatalf("shard accounting wrong: %+v", r)
	}
	if r.CommFraction <= 0 || r.CommFraction >= 1 {
		t.Fatalf("comm fraction %v out of range", r.CommFraction)
	}
}
