package telemetry

import "strconv"

// Collectors for the repository's subsystems live with the subsystems
// themselves (tcpcomm.Stats.Register, metrics.ExchangeStats.Register,
// checkpoint.RegisterMetrics, ...):
// the dependency must point subsystem -> telemetry, never the other
// way, or the low-level packages' tests — which launch clusters, which
// carry a registry — would cycle. This file keeps only the collectors
// with no subsystem dependency. The sds_* names registered across
// those call sites are the canonical inventory; docs/INTERNALS.md
// mirrors the list.

// FInt adapts an int64 loader (the shape of every atomic counter in
// this repository) to the float64 loader the registry wants.
func FInt(load func() int64) func() float64 {
	return func() float64 { return float64(load()) }
}

// MemGauge is the subset of memlimit.Gauge the memory collector reads.
type MemGauge interface {
	Used() int64
	Budget() int64
	Peak() int64
}

// RegisterMem exposes a memlimit gauge. Note Used/Peak only track when
// the gauge has a positive budget (unlimited gauges do not account).
func RegisterMem(r *Registry, g MemGauge) {
	r.GaugeFunc("sds_mem_used_bytes", "Bytes currently reserved on the admission gauge.", FInt(g.Used))
	r.GaugeFunc("sds_mem_budget_bytes", "The admission gauge's budget (0 = unlimited, untracked).", FInt(g.Budget))
	r.GaugeFunc("sds_mem_peak_bytes", "High-water mark of reservations on the admission gauge.", FInt(g.Peak))
}

// RegisterNodeInfo exposes this process's identity in the world as a
// constant info-style gauge.
func RegisterNodeInfo(r *Registry, rank, size, epoch int) {
	r.GaugeFunc("sds_node_info", "Constant 1, labelled with this process's rank, world size and recovery epoch.",
		func() float64 { return 1 },
		L("rank", strconv.Itoa(rank)), L("size", strconv.Itoa(size)), L("epoch", strconv.Itoa(epoch)))
}
