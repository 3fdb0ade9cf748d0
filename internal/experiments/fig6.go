package experiments

import (
	"fmt"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/core"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/psort"
	"sdssort/internal/workload"
)

// Fig6a reproduces Figure 6a: time of the single-node parallel merge —
// SDS-Sort's skew-aware partition merge versus the HykSort-style
// sample-based merge — on Uniform and Zipf workloads of growing size.
// The paper's observation: sample-based merging slows down on skewed
// data (one core inherits all duplicates) while the skew-aware merge is
// flat across workloads.
func Fig6a(cfg Config) (*Result, error) {
	const chunks, workers = 8, 8
	sizes := []int{1 << 16, 1 << 18, 1 << 20}
	if cfg.Quick {
		sizes = []int{1 << 14, 1 << 16}
	}
	tbl := &metrics.Table{
		Title:   "Fig 6a — parallel merge critical path: skew-aware (SDS) vs sample-based (Hyk)",
		Headers: []string{"records", "SDS+Uniform", "SDS+Zipf", "Hyk+Uniform", "Hyk+Zipf"},
	}
	res := &Result{ID: "fig6a", Title: About("fig6a"), Tables: []*metrics.Table{tbl}}
	for _, total := range sizes {
		per := total / chunks
		build := func(alpha float64) [][]float64 {
			out := make([][]float64, chunks)
			for i := range out {
				var c []float64
				if alpha == 0 {
					c = workload.Uniform(cfg.Seed+int64(i), per)
				} else {
					c = workload.ZipfKeys(cfg.Seed+int64(i), per, alpha, 200)
				}
				psort.Sort(c, cmpF64)
				out[i] = c
			}
			return out
		}
		uni := build(0)
		zipf := build(1.6)
		// The figure compares parallel merge time. A worker inheriting
		// all duplicates is the slow path, so the relevant number is
		// the critical path — the longest per-worker busy time — which
		// equals wall time on a machine with >= workers cores and
		// remains measurable on hosts with fewer.
		timeMerge := func(cs [][]float64, skewAware bool) time.Duration {
			return median3(func() time.Duration {
				_, busy := psort.ParallelMerge(cs, workers, false, skewAware, cmpF64)
				var crit time.Duration
				for _, d := range busy {
					if d > crit {
						crit = d
					}
				}
				return crit
			})
		}
		tbl.AddRow(fmt.Sprint(total),
			metrics.FmtDur(timeMerge(uni, true)),
			metrics.FmtDur(timeMerge(zipf, true)),
			metrics.FmtDur(timeMerge(uni, false)),
			metrics.FmtDur(timeMerge(zipf, false)),
		)
	}
	res.Notes = append(res.Notes,
		"paper: HykSort's merge degrades on Zipf while SDS-Sort's skew-aware merge stays level across workloads",
		"reported: critical path (max per-worker busy time) — wall time on a sufficiently parallel host")
	return res, nil
}

// Fig6b reproduces Figure 6b: the cost of computing the partition
// boundaries by sequential full scan, by plain binary ranking, and by
// SDS-Sort's local-pivot-accelerated search, across process counts.
// The paper's result: local pivots push the partition cost to "almost
// zero" relative to scanning.
func Fig6b(cfg Config) (*Result, error) {
	ps := []int{10, 100, 500}
	n := 1 << 21
	if cfg.Quick {
		ps = []int{10, 100}
		n = 1 << 17
	}
	tbl := &metrics.Table{
		Title:   "Fig 6b — partition time by method",
		Headers: []string{"p", "Sequential Scan", "Binary rank (Hyk)", "Local pivots (SDS)"},
	}
	res := &Result{ID: "fig6b", Title: About("fig6b"), Tables: []*metrics.Table{tbl}}
	data := workload.Uniform(cfg.Seed, n)
	psort.Sort(data, cmpF64)
	for _, p := range ps {
		local := partition.NewStripe(data, p, cmpF64)
		pg := local.Pivots
		if len(pg) != p-1 {
			return nil, fmt.Errorf("fig6b: sampled %d pivots for p=%d", len(pg), p)
		}
		timePart := func(loc partition.Locator[float64]) time.Duration {
			return median3(func() time.Duration {
				start := time.Now()
				partition.Fast(data, pg, loc, cmpF64)
				return time.Since(start)
			})
		}
		scan := timePart(partition.Scan[float64]{Cmp: cmpF64})
		binary := timePart(partition.Binary[float64]{Cmp: cmpF64})
		stripe := timePart(local)
		tbl.AddRow(fmt.Sprint(p), metrics.FmtDur(scan), metrics.FmtDur(binary), metrics.FmtDur(stripe))
	}
	res.Notes = append(res.Notes,
		"paper: local-pivot partition time is near zero vs the sequential scan; binary ranking sits in between at small p")
	return res, nil
}

// Fig6c reproduces Figure 6c: total sort time versus the replication
// ratio δ (swept via the Table 2 α values). The paper's result:
// SDS-Sort and SDS-Sort/stable scale smoothly across δ, while HykSort
// only survives δ below ~1% and then dies of load-collapse OOM.
func Fig6c(cfg Config) (*Result, error) {
	// The paper sweeps α 0.4-0.9 (δ 0.2-6.4%) on hundreds of nodes,
	// where HykSort's collapsed load δ·p×(N/p) dwarfs node memory above
	// δ≈1%. At laptop-scale p the same mechanism needs higher δ, so we
	// extend the sweep with the paper's Table-1 α values (δ 32%, 63%)
	// to show the transition.
	alphas := []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.4, 2.1}
	p, perRank := 16, 4000
	if cfg.Quick {
		alphas = []float64{0.4, 0.9, 2.1}
		p, perRank = 8, 1500
	}
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	totalBytes := int64(p*perRank) * int64(f64codec.Size())
	tbl := &metrics.Table{
		Title:   "Fig 6c — sort time vs replication ratio δ (memory budget 4× fair share)",
		Headers: []string{"α", "δ(%)", "HykSort", "SDS-Sort", "SDS-Sort/stable"},
	}
	res := &Result{ID: "fig6c", Title: About("fig6c"), Tables: []*metrics.Table{tbl}}
	for _, alpha := range alphas {
		delta := workload.NewZipf(alpha, workload.DefaultZipfUniverse).MaxProbability() * 100
		gen := func(rank int) []float64 {
			return workload.ZipfKeys(cfg.Seed+int64(rank)*101, perRank, alpha, workload.DefaultZipfUniverse)
		}
		opt := core.DefaultOptions()
		opt.TauM = 0 // node merging trades memory for messages; keep budgets comparable
		rc := runCfg{topo: topo, budgetMultiple: 4, totalBytes: totalBytes, opt: opt}
		hyk := runSort(kindHyk, rc, gen, f64codec, cmpF64)
		sds := runSort(kindSDS, rc, gen, f64codec, cmpF64)
		stable := runSort(kindSDSStable, rc, gen, f64codec, cmpF64)
		for _, o := range []outcome{sds, stable} {
			if o.Err != nil && !o.OOM {
				return nil, fmt.Errorf("fig6c α=%v: %w", alpha, o.Err)
			}
		}
		tbl.AddRow(fmt.Sprintf("%.1f", alpha), fmt.Sprintf("%.1f", delta),
			fmtOutcomeTime(hyk), fmtOutcomeTime(sds), fmtOutcomeTime(stable))
	}
	res.Notes = append(res.Notes,
		"paper: HykSort only completes for δ < 1% and OOMs beyond (their scale); here the collapse appears once δ·p outgrows the budget — SDS-Sort variants complete across the whole sweep")
	return res, nil
}
