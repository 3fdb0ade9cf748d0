package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/core"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
	"sdssort/internal/workload"
)

// Ablation measures the design choices DESIGN.md calls out, beyond what
// the paper plots directly:
//
//  1. run detection on partially ordered inputs (the §2.7 claim that
//     recognising sortedness beats re-sorting);
//  2. the cost of stability (stable vs fast partition + ordering);
//  3. the shared-memory parallel sort's scaling over worker counts on
//     skewed data (the §2.2 skew-aware merge).
func Ablation(cfg Config) (*Result, error) {
	res := &Result{ID: "ablation", Title: About("ablation")}

	// 1. Run detection.
	n := 1 << 20
	if cfg.Quick {
		n = 1 << 16
	}
	blocks := 16
	ks := workload.KSorted(cfg.Seed, n, blocks)
	runTbl := &metrics.Table{
		Title:   fmt.Sprintf("Ablation 1 — local sort of %d-block partially ordered data (%d keys)", blocks, n),
		Headers: []string{"strategy", "time"},
	}
	withDetect := median3(func() time.Duration {
		cp := append([]float64(nil), ks...)
		start := time.Now()
		psort.AdaptiveSort(cp, 1, false, 32, cmpF64)
		return time.Since(start)
	})
	withoutDetect := median3(func() time.Duration {
		cp := append([]float64(nil), ks...)
		start := time.Now()
		psort.ParallelSort(cp, 1, false, cmpF64)
		return time.Since(start)
	})
	runTbl.AddRow("run detection + natural merge", metrics.FmtDur(withDetect))
	runTbl.AddRow("blind re-sort", metrics.FmtDur(withoutDetect))
	res.Tables = append(res.Tables, runTbl)

	// 2. Stability overhead end to end: the sds pair of the baselines'
	// Zipf race.
	fast, err := baselineRun(cfg, baselineZipf, string(kindSDS))
	if err != nil {
		return nil, fmt.Errorf("ablation stability: %w", err)
	}
	stable, err := baselineRun(cfg, baselineZipf, string(kindSDSStable))
	if err != nil {
		return nil, fmt.Errorf("ablation stability: %w", err)
	}
	stTbl := &metrics.Table{
		Title:   "Ablation 2 — cost of stability, the baselines' " + baselineZipf.name + " runs",
		Headers: []string{"mode", "time", "overhead"},
	}
	stTbl.AddRow("fast", metrics.FmtDur(fast.o.Elapsed), "1.00x")
	stTbl.AddRow("stable", metrics.FmtDur(stable.o.Elapsed),
		fmt.Sprintf("%.2fx", float64(stable.o.Elapsed)/float64(fast.o.Elapsed)))
	res.Tables = append(res.Tables, stTbl)
	res.Notes = append(res.Notes,
		"stability costs show in the stable merge sort and the duplicate-count collective; at small p the fast mode's overlapped exchange can cost as much as stability does, so the ratio hovers near 1 here (the paper's ~2x gap appears at scale)")

	// 3. Shared-memory parallel sort scaling on skewed data.
	sn := 1 << 20
	workers := []int{1, 2, 4, 8}
	if cfg.Quick {
		sn = 1 << 16
		workers = []int{1, 4}
	}
	base := workload.ZipfKeys(cfg.Seed, sn, 1.6, 300)
	smTbl := &metrics.Table{
		Title:   fmt.Sprintf("Ablation 3 — SdssLocalSort merge balance on Zipf data (%d keys)", sn),
		Headers: []string{"workers", "wall", "critical path", "balance (crit/ideal)"},
	}
	for _, w := range workers {
		// Sort w chunks, then measure the skew-aware merge's wall and
		// critical-path time. On a host with fewer cores than workers
		// wall time stays flat; the critical path shows the balance
		// a parallel host would enjoy.
		chunkSize := (sn + w - 1) / w
		chunks := make([][]float64, 0, w)
		for lo := 0; lo < sn; lo += chunkSize {
			hi := lo + chunkSize
			if hi > sn {
				hi = sn
			}
			c := append([]float64(nil), base[lo:hi]...)
			psort.Sort(c, cmpF64)
			chunks = append(chunks, c)
		}
		var wall, crit time.Duration
		wall = median3(func() time.Duration {
			start := time.Now()
			_, busy := psort.ParallelMerge(chunks, w, false, true, cmpF64)
			elapsed := time.Since(start)
			crit = 0
			for _, d := range busy {
				if d > crit {
					crit = d
				}
			}
			return elapsed
		})
		ideal := wall / time.Duration(w)
		balance := "-"
		if ideal > 0 {
			balance = fmt.Sprintf("%.2f", float64(crit)/float64(ideal))
		}
		smTbl.AddRow(fmt.Sprint(w), metrics.FmtDur(wall), metrics.FmtDur(crit), balance)
	}
	res.Tables = append(res.Tables, smTbl)

	// 4. The core contribution isolated: the skew-aware partition
	// against the classical upper-bound one — the psrs driver, the
	// paper's own "classical PSS" comparison: same regular sampling,
	// same shared exchange, plain partition — on duplicated data,
	// compared by the maximum rank load.
	pa, perRankA := 8, 2000
	if cfg.Quick {
		pa, perRankA = 4, 800
	}
	topoA := cluster.Topology{Nodes: pa, CoresPerNode: 1}
	// 70% of records share one value, so most global pivots duplicate —
	// the regime where the two partitions diverge.
	genA := func(rank int) []float64 {
		rng := workload.FewDistinct(cfg.Seed+int64(rank)*307, perRankA, 10)
		for i := range rng {
			if i%10 < 7 {
				rng[i] = 5
			}
		}
		return rng
	}
	saTbl := &metrics.Table{
		Title:   fmt.Sprintf("Ablation 4 — skew-aware vs classical partition, 70%%-duplicated keys, p=%d", pa),
		Headers: []string{"partition", "max rank load", "RDFA", "time"},
	}
	optA := core.DefaultOptions()
	optA.TauM = 0
	for _, row := range []struct {
		name string
		kind sorterKind
	}{{"skew-aware (SDS)", kindSDS}, {"classical upper-bound (PSRS)", kindPSRS}} {
		o := runSort(row.kind, runCfg{topo: topoA, opt: optA}, genA, f64codec, cmpF64)
		if o.Err != nil {
			return nil, fmt.Errorf("ablation %s: %w", row.name, o.Err)
		}
		saTbl.AddRow(row.name, fmt.Sprint(slices.Max(o.Loads)),
			metrics.FmtRDFA(metrics.RDFA(o.Loads)), metrics.FmtDur(o.Elapsed))
	}
	res.Tables = append(res.Tables, saTbl)
	res.Notes = append(res.Notes,
		fmt.Sprintf("host has %d CPU(s): wall time cannot drop below serial; the critical path shows the available parallel speedup", runtime.NumCPU()))
	return res, nil
}
