package telemetry

import (
	"gpucnn/internal/gpusim"
)

// CollectDevice snapshots a simulated device's cumulative state into
// the registry as gauges: simulated clock components, launch count,
// memory accountant state, and the profiler's per-kernel totals (the
// paper's Figure 4 hotspot data, now scrapeable). Time series carry
// clock="sim".
func CollectDevice(r *Registry, dev *gpusim.Device, labels Labels) {
	sim := labels.With("clock", "sim")
	r.Help("gpusim_kernel_time_seconds", "Accumulated simulated kernel execution time.")
	r.Gauge("gpusim_kernel_time_seconds", sim).Set(dev.KernelTime().Seconds())
	r.Help("gpusim_transfer_time_seconds", "Accumulated critical-path transfer time.")
	r.Gauge("gpusim_transfer_time_seconds", sim).Set(dev.TransferTime().Seconds())
	r.Help("gpusim_hidden_transfer_time_seconds", "Accumulated compute-overlapped transfer time.")
	r.Gauge("gpusim_hidden_transfer_time_seconds", sim).Set(dev.HiddenTransferTime().Seconds())
	r.Help("gpusim_elapsed_seconds", "Simulated wall clock: kernels plus visible transfers.")
	r.Gauge("gpusim_elapsed_seconds", sim).Set(dev.Elapsed().Seconds())
	r.Help("gpusim_launches", "Kernels launched on the device.")
	r.Gauge("gpusim_launches", labels).Set(float64(dev.Launches()))

	r.Help("gpusim_mem_used_bytes", "Live device memory.")
	r.Gauge("gpusim_mem_used_bytes", labels).Set(float64(dev.Mem.Used()))
	r.Help("gpusim_mem_peak_bytes", "Peak device memory (the paper's Figure 5 quantity).")
	r.Gauge("gpusim_mem_peak_bytes", labels).Set(float64(dev.Mem.Peak()))
	r.Help("gpusim_mem_total_bytes", "Device memory capacity.")
	r.Gauge("gpusim_mem_total_bytes", labels).Set(float64(dev.Mem.Total()))

	r.Help("gpusim_kernel_total_seconds", "Per-kernel summed simulated time (Figure 4 hotspots).")
	r.Help("gpusim_kernel_launches", "Per-kernel launch count.")
	r.Help("gpusim_kernel_flops", "Per-kernel cumulative FLOPs.")
	r.Help("gpusim_kernel_dram_bytes", "Per-kernel cumulative DRAM traffic.")
	for _, k := range dev.Prof.Kernels() {
		kl := labels.With("kernel", k.Name)
		r.Gauge("gpusim_kernel_total_seconds", kl.With("clock", "sim")).Set(k.Total.Seconds())
		r.Gauge("gpusim_kernel_launches", kl).Set(float64(k.Launches))
		r.Gauge("gpusim_kernel_flops", kl).Set(k.FLOPs)
		r.Gauge("gpusim_kernel_dram_bytes", kl).Set(k.DRAMBytes)
	}
}
