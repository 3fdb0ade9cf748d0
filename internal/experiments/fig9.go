package experiments

import (
	"fmt"
	"runtime"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/core"
	"sdssort/internal/metrics"
	"sdssort/internal/workload"
)

// realRun is one real-dataset comparison: HykSort, SDS-Sort and
// SDS-Sort/stable on the same generated dataset, with phase breakdowns.
// Fig 9 and Fig 10 plot these runs; Table 4 prints their RDFA.
type realRun struct {
	p, n             int
	hyk, sds, stable outcome
	totalBytes       int64
}

// phaseTable renders a realRun the way Figs. 9 and 10 plot it: one row
// per sorter, its phases, total and RDFA.
func phaseTable(title string, run realRun) *metrics.Table {
	tbl := &metrics.Table{
		Title:   title,
		Headers: []string{"sorter", "Local sort", "Pivot selection", "Exchange", "Local-ordering", "Other", "total", "RDFA"},
	}
	for _, row := range []struct {
		name string
		o    outcome
	}{{"HykSort", run.hyk}, {"SDS-Sort", run.sds}, {"SDS-Sort/stable", run.stable}} {
		o := row.o
		if o.Err != nil {
			cell := fmtOutcomeTime(o)
			tbl.AddRow(row.name, cell, cell, cell, cell, cell, cell, cell)
			continue
		}
		tbl.AddRow(row.name,
			metrics.FmtDur(o.Phases[metrics.PhaseLocalSort]),
			metrics.FmtDur(o.Phases[metrics.PhasePivotSelection]),
			metrics.FmtDur(o.Phases[metrics.PhaseExchange]),
			metrics.FmtDur(o.Phases[metrics.PhaseLocalOrdering]),
			metrics.FmtDur(o.Phases[metrics.PhaseOther]),
			metrics.FmtDur(o.Elapsed),
			metrics.FmtRDFA(metrics.RDFA(o.Loads)),
		)
	}
	return tbl
}

// hostNote explains the one-CPU compression of imbalance-driven
// speedups: with ranks time-sharing few cores, wall time approaches the
// sum of all ranks' work, so a collapsed rank costs the same total CPU
// as a balanced run. The RDFA column carries the imbalance the paper's
// parallel wall times reflect; on a host with >= p cores the time gap
// widens toward the paper's factors.
func hostNote() string {
	return fmt.Sprintf("host has %d CPU(s); imbalance shows as RDFA here and as wall time only when ranks run truly in parallel", runtime.NumCPU())
}

// ptfRuns sorts the Palomar Transient Factory stand-in (δ = 28.02%
// duplicated real-bogus scores) with each of the three sorters. No
// memory budget: the paper notes the PTF set fits in one node's RAM, so
// HykSort limps through with extreme imbalance instead of dying.
func ptfRuns(cfg Config) (realRun, error) {
	return measured(cfg, "ptf", func() (realRun, error) {
		p, perRank := 16, 48000
		if cfg.Quick {
			p, perRank = 8, 2000
		}
		topo := cluster.Topology{Nodes: p / 2, CoresPerNode: 2}
		cd := codec.PTFCodec{}
		gen := func(rank int) []codec.PTFRecord {
			return workload.PTF(cfg.Seed+int64(rank)*7867, perRank)
		}
		rc := runCfg{topo: topo, opt: core.DefaultOptions()}
		run := realRun{
			p:          p,
			n:          p * perRank,
			totalBytes: int64(p*perRank) * int64(cd.Size()),
			hyk:        runSort(kindHyk, rc, gen, cd, codec.ComparePTF),
			sds:        runSort(kindSDS, rc, gen, cd, codec.ComparePTF),
			stable:     runSort(kindSDSStable, rc, gen, cd, codec.ComparePTF),
		}
		for name, o := range map[string]outcome{"hyk": run.hyk, "sds": run.sds, "stable": run.stable} {
			if o.Err != nil {
				return realRun{}, fmt.Errorf("ptf %s: %w", name, o.Err)
			}
		}
		return run, nil
	})
}

// Fig9 reproduces Figure 9: sorting the Palomar Transient Factory
// detections with the phase breakdown the paper plots. The paper's
// result on 192 cores: SDS-Sort 3.4× faster than HykSort,
// SDS-Sort/stable 2.2× faster; HykSort survives (the whole dataset fits
// one node) but with RDFA 32.7.
func Fig9(cfg Config) (*Result, error) {
	run, err := ptfRuns(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	tbl := phaseTable(fmt.Sprintf("Fig 9 — PTF (δ≈28%%), %d ranks, %d records", run.p, run.n), run)
	res := &Result{ID: "fig9", Title: About("fig9"), Tables: []*metrics.Table{tbl}}
	res.Notes = append(res.Notes, hostNote(), fmt.Sprintf(
		"speedup vs HykSort: SDS-Sort %.2fx, SDS-Sort/stable %.2fx (paper: 3.4x and 2.2x)",
		float64(run.hyk.Elapsed)/float64(run.sds.Elapsed),
		float64(run.hyk.Elapsed)/float64(run.stable.Elapsed)))
	return res, nil
}

// cosmoRuns sorts the cosmology particle stand-in (cluster-id keys,
// δ = 0.73%, 6-float payload) with each of the three sorters, budgeted
// like the paper's nodes: a skew-collapsed HykSort run that exceeds its
// share OOMs.
func cosmoRuns(cfg Config) (realRun, error) {
	return measured(cfg, "cosmology", func() (realRun, error) {
		p, perRank := 16, 32000
		if cfg.Quick {
			p, perRank = 8, 2000
		}
		topo := cluster.Topology{Nodes: p / 2, CoresPerNode: 2}
		cd := codec.ParticleCodec{}
		totalBytes := int64(p*perRank) * int64(cd.Size())
		gen := func(rank int) []codec.Particle {
			return workload.Cosmology(cfg.Seed+int64(rank)*7919, perRank)
		}
		rc := runCfg{topo: topo, budgetMultiple: 4, totalBytes: totalBytes, opt: core.DefaultOptions()}
		run := realRun{
			p:          p,
			n:          p * perRank,
			totalBytes: totalBytes,
			hyk:        runSort(kindHyk, rc, gen, cd, codec.CompareParticles),
			sds:        runSort(kindSDS, rc, gen, cd, codec.CompareParticles),
			stable:     runSort(kindSDSStable, rc, gen, cd, codec.CompareParticles),
		}
		for name, o := range map[string]outcome{"sds": run.sds, "stable": run.stable} {
			if o.Err != nil {
				return realRun{}, fmt.Errorf("cosmology %s: %w", name, o.Err)
			}
		}
		return run, nil
	})
}

// Fig10 reproduces Figure 10: sorting the cosmology particle snapshot
// with phase breakdowns. The paper's result at 16K cores: HykSort dies
// of OOM; SDS-Sort and SDS-Sort/stable finish at 15.63 and 7.87 TB/min.
func Fig10(cfg Config) (*Result, error) {
	run, err := cosmoRuns(cfg)
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	tbl := phaseTable(fmt.Sprintf("Fig 10 — cosmology (δ≈0.73%%), %d ranks, %d particles", run.p, run.n), run)
	res := &Result{ID: "fig10", Title: About("fig10"), Tables: []*metrics.Table{tbl}}
	res.Notes = append(res.Notes, hostNote())
	res.Notes = append(res.Notes, fmt.Sprintf(
		"SDS throughput %s, stable %s (paper: 15.63 and 7.87 TB/min at 16K cores)",
		metrics.FormatThroughput(metrics.Throughput(run.totalBytes, run.sds.Elapsed)),
		metrics.FormatThroughput(metrics.Throughput(run.totalBytes, run.stable.Elapsed))))
	if run.hyk.OOM {
		res.Notes = append(res.Notes, "HykSort OOM reproduced, as in the paper")
	} else {
		res.Notes = append(res.Notes,
			"HykSort survives at this scale: its collapsed load is ~δ·p × the fair share, which outgrows any fixed budget only at cluster-scale p (δ=0.73% needs p in the hundreds)")
	}
	return res, nil
}

// Table4 reproduces Table 4: RDFA on the two real datasets, read off the
// Fig 9 and Fig 10 runs. Paper: PTF — HykSort 32.68, SDS 1.99, stable
// 1.69; cosmology — HykSort ∞ (OOM), SDS/stable 1.40.
func Table4(cfg Config) (*Result, error) {
	ptf, err := ptfRuns(cfg)
	if err != nil {
		return nil, fmt.Errorf("tab4: %w", err)
	}
	cos, err := cosmoRuns(cfg)
	if err != nil {
		return nil, fmt.Errorf("tab4: %w", err)
	}
	tbl := &metrics.Table{
		Title:   "Table 4 — RDFA of the Fig 9 and Fig 10 runs",
		Headers: []string{"dataset", "p", "HykSort", "SDS-Sort", "SDS-Sort/stable"},
	}
	for _, row := range []struct {
		name string
		run  realRun
	}{{"PTF", ptf}, {"Cosmology", cos}} {
		tbl.AddRow(row.name, fmt.Sprint(row.run.p),
			fmtOutcomeRDFA(row.run.hyk), fmtOutcomeRDFA(row.run.sds), fmtOutcomeRDFA(row.run.stable))
	}
	res := &Result{ID: "tab4", Title: About("tab4"), Tables: []*metrics.Table{tbl}}
	res.Notes = append(res.Notes,
		"paper: PTF 32.68 / 1.99 / 1.69; cosmology inf / 1.40 / 1.40 — HykSort's imbalance explodes on duplicates, SDS stays near the bound")
	return res, nil
}
