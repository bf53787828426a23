package gpusim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// KernelStats accumulates the profile of one kernel name across
// launches, mirroring an nvprof summary row.
type KernelStats struct {
	Name      string
	Launches  int
	Total     time.Duration
	FLOPs     float64
	DRAMBytes float64
	// Launch resource usage (constant per kernel name; last seen).
	RegsPerThread int
	SmemPerBlock  int
	// Metric sums for averaging (time-weighted).
	occSum, ipcSum, weeSum, gldSum, gstSum, sharedSum float64 // weighted by duration seconds
	weight                                            float64
}

// Mean returns the time-weighted mean metrics of this kernel.
func (k *KernelStats) Mean() Metrics {
	if k.weight == 0 {
		return Metrics{}
	}
	w := k.weight
	return Metrics{
		Duration:          k.Total,
		AchievedOccupancy: k.occSum / w,
		IPC:               k.ipcSum / w,
		WarpExecEff:       k.weeSum / w,
		GldEff:            k.gldSum / w,
		GstEff:            k.gstSum / w,
		SharedEff:         k.sharedSum / w,
		FLOPs:             k.FLOPs,
		DRAMBytes:         k.DRAMBytes,
	}
}

// Profiler records every kernel launch on a device, like nvprof. It is
// safe for concurrent use.
type Profiler struct {
	mu      sync.Mutex
	kernels map[string]*KernelStats
	order   []string // first-launch order, for stable output
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{kernels: make(map[string]*KernelStats)}
}

// Record adds one launch of the named kernel.
func (p *Profiler) Record(name string, m Metrics) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ks, ok := p.kernels[name]
	if !ok {
		ks = &KernelStats{Name: name}
		p.kernels[name] = ks
		p.order = append(p.order, name)
	}
	ks.Launches++
	ks.Total += m.Duration
	ks.FLOPs += m.FLOPs
	ks.DRAMBytes += m.DRAMBytes
	ks.RegsPerThread = m.RegsPerThread
	ks.SmemPerBlock = m.SmemPerBlock
	w := m.Duration.Seconds()
	ks.weight += w
	ks.occSum += m.AchievedOccupancy * w
	ks.ipcSum += m.IPC * w
	ks.weeSum += m.WarpExecEff * w
	ks.gldSum += m.GldEff * w
	ks.gstSum += m.GstEff * w
	ks.sharedSum += m.SharedEff * w
}

// totalLocked sums all recorded launch durations. Callers hold p.mu.
func (p *Profiler) totalLocked() time.Duration {
	var t time.Duration
	for _, k := range p.kernels {
		t += k.Total
	}
	return t
}

// kernelsLocked copies all kernel stats sorted by descending total
// time. Callers hold p.mu; the copies stay valid (and race-free)
// after release even while concurrent Records continue.
func (p *Profiler) kernelsLocked() []*KernelStats {
	out := make([]*KernelStats, 0, len(p.kernels))
	for _, name := range p.order {
		c := *p.kernels[name]
		out = append(out, &c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// TotalTime returns the summed duration of all recorded launches.
func (p *Profiler) TotalTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totalLocked()
}

// Kernels returns a snapshot of all kernel stats sorted by descending
// total time.
func (p *Profiler) Kernels() []*KernelStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.kernelsLocked()
}

// TopKernels returns up to n kernels by descending total time.
func (p *Profiler) TopKernels(n int) []*KernelStats {
	ks := p.Kernels()
	if len(ks) > n {
		ks = ks[:n]
	}
	return ks
}

// Shares returns each kernel's fraction of total recorded time, in the
// same order as Kernels(). This is the quantity behind the paper's
// Figure 4 pie-style breakdowns. The total and the kernel list come
// from one consistent snapshot (a single lock acquisition), so the
// shares sum to 1 even while concurrent Records land.
func (p *Profiler) Shares() map[string]float64 {
	p.mu.Lock()
	total := p.totalLocked().Seconds()
	ks := p.kernelsLocked()
	p.mu.Unlock()
	out := make(map[string]float64)
	if total == 0 {
		return out
	}
	for _, k := range ks {
		out[k.Name] = k.Total.Seconds() / total
	}
	return out
}

// WeightedMetrics reproduces the paper's Figure 6 methodology: profile
// the top kernels of an implementation and take the average of each
// metric weighted by the kernel's share of total runtime. Shared
// efficiency is averaged only over kernels that touch shared memory
// (nvprof reports no shared_efficiency for the others).
func (p *Profiler) WeightedMetrics(topN int) Metrics {
	ks := p.TopKernels(topN)
	var wsum, sharedW float64
	var out Metrics
	for _, k := range ks {
		w := k.Total.Seconds()
		m := k.Mean()
		out.AchievedOccupancy += m.AchievedOccupancy * w
		out.IPC += m.IPC * w
		out.WarpExecEff += m.WarpExecEff * w
		out.GldEff += m.GldEff * w
		out.GstEff += m.GstEff * w
		if m.SharedEff > 0 {
			out.SharedEff += m.SharedEff * w
			sharedW += w
		}
		out.Duration += k.Total
		out.FLOPs += k.FLOPs
		out.DRAMBytes += k.DRAMBytes
		wsum += w
	}
	if wsum > 0 {
		out.AchievedOccupancy /= wsum
		out.IPC /= wsum
		out.WarpExecEff /= wsum
		out.GldEff /= wsum
		out.GstEff /= wsum
	}
	if sharedW > 0 {
		out.SharedEff /= sharedW
	}
	return out
}

// Summary renders an nvprof-like text table of the recorded kernels,
// from one consistent snapshot of the profile.
func (p *Profiler) Summary() string {
	p.mu.Lock()
	total := p.totalLocked().Seconds()
	ks := p.kernelsLocked()
	p.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %8s %12s %7s %6s %6s %6s %6s %6s\n",
		"Kernel", "Launches", "Time", "Share", "Occ%", "IPC", "WEE%", "Gld%", "Shm%")
	for _, k := range ks {
		m := k.Mean()
		share := 0.0
		if total > 0 {
			share = k.Total.Seconds() / total * 100
		}
		fmt.Fprintf(&b, "%-42s %8d %12s %6.1f%% %6.1f %6.2f %6.1f %6.1f %6.1f\n",
			k.Name, k.Launches, k.Total.Round(time.Microsecond), share,
			m.AchievedOccupancy*100, m.IPC, m.WarpExecEff, m.GldEff, m.SharedEff)
	}
	return b.String()
}

// ArithmeticIntensity returns the kernel's cumulative flops per DRAM
// byte — the x-axis of a roofline plot.
func (k *KernelStats) ArithmeticIntensity() float64 {
	if k.DRAMBytes == 0 {
		return 0
	}
	return k.FLOPs / k.DRAMBytes
}

// Bound classifies the kernel against the device's roofline ridge
// point: kernels whose arithmetic intensity falls below
// peak-flops/bandwidth are "memory"-bound, the rest "compute"-bound.
// Kernels with no DRAM traffic at all (cuDNN's shared-memory-only
// compute kernels) are compute-bound by construction.
func (k *KernelStats) Bound(spec DeviceSpec) string {
	if k.DRAMBytes == 0 {
		return "compute"
	}
	ridge := spec.PeakGFLOPS() * 1e9 / (spec.MemBandwidthGBps * 1e9)
	if k.ArithmeticIntensity() < ridge {
		return "memory"
	}
	return "compute"
}
