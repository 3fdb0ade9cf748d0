package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/core"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
)

// tracePass is the traced half of a --trace 1 run. It keeps the span
// tree in memory — workload, sort i, rank r, then the program's own
// sort and phase spans — and writes it out when the run ends.
type tracePass struct {
	ring *trace.Ring
	root *trace.Span
	name string
}

func newTracePass(name string) *tracePass {
	ring := trace.NewRing(1 << 16)
	return &tracePass{ring: ring, name: name,
		root: trace.StartSpan(ring, -1, trace.Scope{Trace: name}, name, nil)}
}

// observers are the hooks core.Options already has, switched on for one
// traced sort. Each sort gets fresh ones, so counts are per sort and
// repeat exactly for a given seed.
type observers struct {
	pass     *tracePass
	sort     *trace.Span
	timers   []*metrics.PhaseTimer
	gauges   []*memlimit.Gauge
	exchange *metrics.ExchangeStats
	skew     *metrics.SkewStats
	spill    *metrics.SpillStats
	tcp0     tcpCounters
}

func (t *tracePass) observe(i int, tcp []*tcpcomm.Stats) *observers {
	p := topo.Size()
	o := &observers{
		pass: t,
		// Its own trace id, so the critical-path analyzer sees one sort.
		sort: trace.StartSpan(t.ring, -1,
			trace.Scope{Trace: fmt.Sprintf("%s/sort%d", t.name, i), Parent: t.root.ID()},
			fmt.Sprintf("sort %d", i), nil),
		timers:   make([]*metrics.PhaseTimer, p),
		gauges:   make([]*memlimit.Gauge, p),
		exchange: &metrics.ExchangeStats{},
		skew:     metrics.NewSkewStats(),
		spill:    &metrics.SpillStats{},
		tcp0:     readTCP(tcp),
	}
	for r := range o.timers {
		o.timers[r] = metrics.NewPhaseTimer()
	}
	return o
}

// attach switches the observers on in one rank's options.
func (o *observers) attach(opt *core.Options, rank int) {
	opt.Timer = o.timers[rank]
	opt.Exchange = o.exchange
	opt.Skew = o.skew
	opt.Trace = o.pass.ring
	if opt.Mem == nil {
		// A gauge only tracks its peak under a budget; this one is out
		// of reach.
		opt.Mem = memlimit.New(1 << 50)
	}
	o.gauges[rank] = opt.Mem
	if opt.Spill != nil {
		opt.Spill.Stats = o.spill
	}
}

// enter opens the rank's span around the call into the sort and makes
// the sort's own root span its child. On an untraced sort o is nil and
// so is the span.
func (o *observers) enter(opt *core.Options, rank int) *trace.Span {
	if o == nil {
		return nil
	}
	sp := trace.StartSpan(o.pass.ring, rank, o.sort.Scope(), fmt.Sprintf("rank %d", rank), nil)
	opt.Span = sp.Scope()
	return sp
}

// tcpCounters are the wire counters of the four transports, summed.
type tcpCounters struct{ bytes, frames, retries int64 }

func readTCP(stats []*tcpcomm.Stats) tcpCounters {
	var c tcpCounters
	for _, s := range stats {
		if s != nil {
			c.bytes += s.BytesSent.Load()
			c.frames += s.FramesSent.Load()
			c.retries += s.SendRetries.Load()
		}
	}
	return c
}

// The per-phase rows, in the order of the paper's Figs. 9-10.
var phaseKeys = []struct {
	phase metrics.Phase
	key   string
}{
	{metrics.PhaseLocalSort, "core.localsort_s"},
	{metrics.PhasePivotSelection, "core.pivots_s"},
	{metrics.PhaseExchange, "core.exchange_s"},
	{metrics.PhaseLocalOrdering, "core.localorder_s"},
	{metrics.PhaseOther, "core.other_s"},
}

// read closes the sort's span and collects what the observers saw.
// Each phase is charged the time of its slowest rank, so a rank that
// waits in a collective for a slower peer's earlier phase counts twice
// and core.unattributed_frac can come out below zero.
func (o *observers) read(wall time.Duration, tcp []*tcpcomm.Stats) map[string]float64 {
	o.sort.End(nil)
	m := map[string]float64{}
	slowest := metrics.MergeMax(o.timers)
	var attributed time.Duration
	for _, pk := range phaseKeys {
		m[pk.key] = slowest[pk.phase].Seconds()
		attributed += slowest[pk.phase]
	}
	m["core.unattributed_frac"] = 1 - attributed.Seconds()/wall.Seconds()
	m["core.exchange_bytes"] = float64(o.exchange.BytesStaged.Load())
	m["core.exchange_chunks"] = float64(o.exchange.StageChunks.Load())
	m["core.zero_copy_bytes"] = float64(o.exchange.ZeroCopyBytes.Load())
	m["core.pool_hit_rate"] = o.exchange.PoolHitRate()
	m["core.imbalance_exchange"] = o.skew.Imbalance(metrics.SkewExchange)
	m["core.spill_bytes"] = float64(o.spill.BytesSpilled.Load())
	m["core.spill_runs"] = float64(o.spill.RunsSpilled.Load())
	m["core.spill_merge_passes"] = float64(o.spill.MergePasses.Load())
	var peak int64
	for _, g := range o.gauges {
		peak = max(peak, g.Peak())
	}
	m["core.mem_peak_bytes"] = float64(peak)
	now := readTCP(tcp)
	m["tcpcomm.bytes_sent"] = float64(now.bytes - o.tcp0.bytes)
	m["tcpcomm.frames"] = float64(now.frames - o.tcp0.frames)
	m["tcpcomm.retries"] = float64(now.retries - o.tcp0.retries)
	return m
}

var layerUnits = map[string]string{
	"core.wall_s":      "s",
	"core.localsort_s": "s", "core.pivots_s": "s", "core.exchange_s": "s",
	"core.localorder_s": "s", "core.other_s": "s",
	"core.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
	"core.exchange_bytes": "bytes", "core.exchange_chunks": "count",
	"core.zero_copy_bytes": "bytes", "core.pool_hit_rate": "ratio",
	"core.imbalance_exchange": "ratio",
	"core.spill_bytes":        "bytes", "core.spill_runs": "count",
	"core.spill_merge_passes": "count", "core.mem_peak_bytes": "bytes",
	"tcpcomm.bytes_sent": "bytes", "tcpcomm.frames": "count", "tcpcomm.retries": "count",
}

// layerMetrics reports the traced sorts, the cost of tracing them, and
// the isolated layer probes, then writes the span tree out.
func (j *job[T]) layerMetrics(out map[string]metric) error {
	j.tracing.root.End(nil)
	byKey := map[string][]float64{}
	var plain, traced []float64
	for i, s := range j.traced {
		for k, v := range s.layers {
			byKey[k] = append(byKey[k], v)
		}
		traced = append(traced, s.wall.Seconds())
		plain = append(plain, j.plain[i].wall.Seconds())
	}
	for k, v := range byKey {
		out[k] = summarise(v, layerUnits[k], 0.5)
	}
	// The untraced sorts' wall time as measured, to set the phase rows
	// against. (sort_mbps is scaled to a quiet host; this is not.)
	out["core.wall_s"] = summarise(plain, "s", 0.5)
	out["trace.overhead_frac"] = single(median(traced)/median(plain)-1, layerUnits["trace.overhead_frac"])

	events := j.tracing.ring.Events()
	if cp, ok := trace.CriticalPath(events); ok && cp.RootName == "sort" {
		// The analyzer's view of the slowest traced sort, from the
		// program's own phase spans, to set beside the phase rows. The
		// file-shard driver opens no spans, so there is nothing to show.
		fmt.Print(cp.Render())
	}
	chrome, err := trace.ChromeTrace(events)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(j.cfg.outDir, "trace-"+j.name+".json"), chrome, 0o644); err != nil {
		return err
	}
	return runProbes(j.cfg, out)
}
