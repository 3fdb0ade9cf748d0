package experiments

import (
	"fmt"
	"time"

	"sdssort/internal/algo"
	"sdssort/internal/bitonic"
	"sdssort/internal/cluster"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/metrics"
	"sdssort/internal/radix"
	"sdssort/internal/workload"
)

// baselineRow is one sorter's run in the baselines race: the driver
// that actually executed beside its time and loads.
type baselineRow struct {
	sorter, ran string
	o           outcome
}

// baselineWorkload is one column family of the baselines race.
type baselineWorkload struct {
	name string
	gen  func(seed int64, n int) []float64
}

var (
	baselineUniform = baselineWorkload{"Uniform", workload.Uniform}
	baselineZipf    = baselineWorkload{"Zipf(α=1.4, δ≈32%)", func(seed int64, n int) []float64 {
		return workload.ZipfKeys(seed, n, 1.4, workload.DefaultZipfUniverse)
	}}
	baselineDup = baselineWorkload{"Dup(16 distinct values)", func(seed int64, n int) []float64 {
		return workload.FewDistinct(seed, n, 16)
	}}
)

// baselineWorkloads lists the race's workloads: Uniform and Zipf, plus
// the duplicate-heavy, unskewed preset outside quick mode.
func baselineWorkloads(cfg Config) []baselineWorkload {
	if cfg.Quick {
		return []baselineWorkload{baselineUniform, baselineZipf}
	}
	return []baselineWorkload{baselineUniform, baselineZipf, baselineDup}
}

// baselineSorters lists the race's sorters: each registered driver (sds
// followed by its stable mode), then distributed bitonic and parallel
// radix.
func baselineSorters() []string {
	var names []string
	for _, name := range algo.Names() {
		names = append(names, name)
		if name == algo.NameSDS {
			names = append(names, string(kindSDSStable))
		}
	}
	return append(names, "bitonic", "radix")
}

// baselineRun measures one sorter of the race on wl. Each run is kept
// on its own, so the ablation's cost-of-stability table reads just the
// sds pair of the Zipf race.
func baselineRun(cfg Config, wl baselineWorkload, sorter string) (baselineRow, error) {
	return measured(cfg, "baselines "+wl.name+" "+sorter, func() (baselineRow, error) {
		p, perRank := 8, 8000
		if cfg.Quick {
			p, perRank = 4, 2000
		}
		topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
		gen := func(rank int) []float64 {
			return wl.gen(cfg.Seed+int64(rank)*613, perRank)
		}
		row := baselineRow{sorter: sorter, ran: sorter}
		switch sorter {
		case "bitonic":
			row.o = runBitonic(topo, gen)
		case "radix":
			row.o = runRadix(topo, gen)
		default:
			sel := &metrics.AlgoStats{}
			row.o = runSort(sorterKind(sorter), runCfg{topo: topo, opt: core.DefaultOptions(), selection: sel}, gen, f64codec, cmpF64)
			row.ran = resolvedName(sel)
		}
		if row.o.Err != nil {
			return row, fmt.Errorf("%s on %s: %w", sorter, wl.name, row.o.Err)
		}
		return row, nil
	})
}

// Baselines runs the paper's future-work item "more comparisons against
// various parallel sorting methods": every registered driver — SDS-Sort
// fast and stable, HSS, multi-level AMS, HykSort, classical PSRS and
// auto — against distributed bitonic sort and parallel radix sort, on
// the Uniform and Zipf workloads and, outside quick mode, 16 distinct
// values. The time columns carry the headline; the RDFA columns carry
// the why.
func Baselines(cfg Config) (*Result, error) {
	res := &Result{ID: "baselines", Title: About("baselines")}
	for _, wl := range baselineWorkloads(cfg) {
		tbl := &metrics.Table{
			Title:   "Baselines — " + wl.name,
			Headers: []string{"sorter", "time", "RDFA"},
		}
		for _, sorter := range baselineSorters() {
			r, err := baselineRun(cfg, wl, sorter)
			if err != nil {
				return nil, fmt.Errorf("baselines: %w", err)
			}
			tbl.AddRow(r.sorter, fmtOutcomeTime(r.o), fmtOutcomeRDFA(r.o))
		}
		res.Tables = append(res.Tables, tbl)
	}
	res.Notes = append(res.Notes,
		"bitonic moves data log²p times (communication-bound); radix needs an integer key mapping and distributes on high bits (coarse for floats); PSRS/HykSort/HSS/AMS partition duplicate-obliviously and lose balance on Zipf — the §5 trade-offs")
	return res, nil
}

// AlgoCompare renders the registered drivers' rows of the baselines
// race — the head-to-head the pluggable algorithm layer exists for —
// with the driver that actually ran, so the auto rows make the runtime
// selection visible from the CLI. Under a shared Runs it sorts nothing
// the baselines did not.
func AlgoCompare(cfg Config) (*Result, error) {
	res := &Result{ID: "algocmp", Title: About("algocmp")}
	for _, wl := range baselineWorkloads(cfg) {
		tbl := &metrics.Table{
			Title:   "Algorithm comparison — " + wl.name,
			Headers: []string{"driver", "time", "RDFA", "ran"},
		}
		for _, name := range algo.Names() {
			r, err := baselineRun(cfg, wl, name)
			if err != nil {
				return nil, fmt.Errorf("algocmp: %w", err)
			}
			tbl.AddRow(r.sorter, fmtOutcomeTime(r.o), fmtOutcomeRDFA(r.o), r.ran)
		}
		res.Tables = append(res.Tables, tbl)
	}
	res.Notes = append(res.Notes,
		"'ran' is the driver that executed; for auto it is the resolved choice of the profile-driven decision rule (docs/INTERNALS.md): duplicate-heavy → sds, spill pressure → sds, large worlds with narrow records → ams, otherwise hss")
	return res, nil
}

// resolvedName reports the driver a selection-counting run resolved to.
func resolvedName(sel *metrics.AlgoStats) string {
	for _, n := range algo.Names() {
		if sel.Count(n) > 0 {
			return n
		}
	}
	return "?"
}

// runBitonic measures the distributed bitonic baseline.
func runBitonic(topo cluster.Topology, gen func(rank int) []float64) outcome {
	p := topo.Size()
	loads := make([]int, p)
	start := time.Now()
	err := cluster.Run(topo, func(c *comm.Comm) error {
		out, _, err := bitonic.DistributedSort(c, gen(c.Rank()), f64codec, cmpF64)
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
	return outcome{Elapsed: time.Since(start), Loads: loads, Err: err}
}
