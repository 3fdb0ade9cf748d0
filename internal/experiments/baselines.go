package experiments

import (
	"time"

	"sdssort/internal/bitonic"
	"sdssort/internal/cluster"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/metrics"
	"sdssort/internal/radix"
	"sdssort/internal/workload"
)

// Baselines runs the paper's future-work item "more comparisons against
// various parallel sorting methods": SDS-Sort (fast and stable) against
// HykSort, HSS, multi-level AMS, classical PSRS, distributed bitonic
// sort, and parallel radix sort, on the Uniform and Zipf workloads. The
// time columns carry the headline; the RDFA columns carry the why.
func Baselines(cfg Config) (*Result, error) {
	p, perRank := 8, 8000
	if cfg.Quick {
		p, perRank = 4, 2000
	}
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}

	res := &Result{ID: "baselines", Title: About("baselines")}
	for _, wl := range []struct {
		name  string
		alpha float64
	}{{"Uniform", 0}, {"Zipf(α=1.4, δ≈32%)", 1.4}} {
		gen := func(rank int) []float64 {
			seed := cfg.Seed + int64(rank)*613
			if wl.alpha == 0 {
				return workload.Uniform(seed, perRank)
			}
			return workload.ZipfKeys(seed, perRank, wl.alpha, workload.DefaultZipfUniverse)
		}
		tbl := &metrics.Table{
			Title:   "Baselines — " + wl.name,
			Headers: []string{"sorter", "time", "RDFA"},
		}
		rc := runCfg{topo: topo, opt: core.DefaultOptions()}

		row := func(name string, o outcome) {
			rdfa := "inf"
			if o.Err == nil {
				rdfa = metrics.FmtRDFA(metrics.RDFA(o.Loads))
			}
			tbl.AddRow(name, fmtOutcomeTime(o), rdfa)
		}
		row("SDS-Sort", runSort(kindSDS, rc, gen, f64codec, cmpF64))
		row("SDS-Sort/stable", runSort(kindSDSStable, rc, gen, f64codec, cmpF64))
		row("HykSort", runSort(kindHyk, rc, gen, f64codec, cmpF64))
		row("HSS", runSort(kindHSS, rc, gen, f64codec, cmpF64))
		row("AMS", runSort(kindAMS, rc, gen, f64codec, cmpF64))
		row("PSRS", runSort(kindPSRS, rc, gen, f64codec, cmpF64))
		row("Bitonic", runBitonic(topo, gen))
		row("Radix", runRadix(topo, gen))
		res.Tables = append(res.Tables, tbl)
	}
	res.Notes = append(res.Notes,
		"bitonic moves data log²p times (communication-bound); radix needs an integer key mapping and distributes on high bits (coarse for floats); PSRS/HykSort/HSS/AMS partition duplicate-obliviously and lose balance on Zipf — the §5 trade-offs")
	return res, nil
}

// runBitonic measures the distributed bitonic baseline.
func runBitonic(topo cluster.Topology, gen func(rank int) []float64) outcome {
	p := topo.Size()
	loads := make([]int, p)
	start := time.Now()
	err := cluster.Run(topo, func(c *comm.Comm) error {
		out, err := bitonic.DistributedSort(c, gen(c.Rank()), f64codec, cmpF64)
		if err != nil {
			return err
		}
		loads[c.Rank()] = len(out)
		return nil
	})
	return outcome{Elapsed: time.Since(start), Loads: loads, Err: err}
}

// runRadix measures the parallel radix baseline via the order-preserving
// float-to-uint64 key mapping.
func runRadix(topo cluster.Topology, gen func(rank int) []float64) outcome {
	p := topo.Size()
	loads := make([]int, p)
	start := time.Now()
	err := cluster.Run(topo, func(c *comm.Comm) error {
		out, err := radix.Sort(c, gen(c.Rank()), f64codec, f64codec.Uint64Key)
		if err != nil {
			return err
		}
		loads[c.Rank()] = len(out)
		return nil
	})
	if err != nil {
		return outcome{Elapsed: time.Since(start), Loads: loads, Err: err}
	}
	return outcome{Elapsed: time.Since(start), Loads: loads}
}
