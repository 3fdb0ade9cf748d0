// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) at laptop scale: one driver per artifact, shared
// between the cmd/sdsbench binary and the repository's benchmarks. Each
// driver returns rendered tables whose rows/series correspond to what
// the paper plots; EXPERIMENTS.md records the paper-versus-measured
// comparison. An artifact the paper draws from another's runs (Table 3
// from Figs. 7-8, Table 4 from Figs. 9-10) renders those runs: under a
// shared Runs each measurement is made once.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"sdssort/internal/algo"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
)

// Config scales an experiment run.
type Config struct {
	// Quick shrinks data sizes and sweep ranges so the whole suite
	// finishes in seconds (used by tests and -quick runs).
	Quick bool
	// Seed makes runs reproducible.
	Seed int64
	// Runs, when non-nil, keeps the measurements made under this Config,
	// so a later artifact drawn from the same runs renders them instead
	// of sorting again. nil makes every artifact run its own.
	Runs *Runs
}

// Runs holds the measurements of a sequence of experiments, keyed by
// what was measured and under which Quick/Seed. The zero value is ready
// to use; it is not safe for concurrent experiments.
type Runs struct {
	done map[runKey]any
}

type runKey struct {
	name  string
	quick bool
	seed  int64
}

// measured returns the measurements named name: cfg.Runs' copy when an
// earlier experiment made them, otherwise run's, kept for the next.
func measured[R any](cfg Config, name string, run func() (R, error)) (R, error) {
	if cfg.Runs == nil {
		return run()
	}
	key := runKey{name, cfg.Quick, cfg.Seed}
	if r, ok := cfg.Runs.done[key]; ok {
		return r.(R), nil
	}
	r, err := run()
	if err != nil {
		return r, err
	}
	if cfg.Runs.done == nil {
		cfg.Runs.done = make(map[runKey]any)
	}
	cfg.Runs.done[key] = r
	return r, nil
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Notes  []string
}

// String renders the result for the terminal.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Runner executes one experiment.
type Runner func(cfg Config) (*Result, error)

// registry maps experiment ids to runners, in paper order. It is
// populated in init to break the initialization cycle between the
// runner functions (which call About) and this table.
var registry []regEntry

type regEntry struct {
	ID    string
	Run   Runner
	About string
}

func init() {
	registry = []regEntry{
		{"fig5a", Fig5a, "exchange time with vs without node-level merging (τm)"},
		{"fig5b", Fig5b, "overlapped vs non-overlapped exchange and local ordering (τo)"},
		{"fig5c", Fig5c, "final local ordering by sorting vs merging (τs)"},
		{"tab1", Table1, "sequential sort vs stable sort on uniform and Zipf data"},
		{"tab2", Table2, "relationship between Zipf α and duplication ratio δ"},
		{"fig6a", Fig6a, "skew-aware vs sample-based shared-memory parallel merge"},
		{"fig6b", Fig6b, "partition methods: full scan vs binary rank vs local pivots"},
		{"fig6c", Fig6c, "sort time vs replication ratio δ (HykSort collapse)"},
		{"fig7", Fig7, "weak scaling on the Uniform workload"},
		{"fig8", Fig8, "weak scaling on the Zipf workload (HykSort OOM)"},
		{"tab3", Table3, "RDFA load balance across the scaling runs"},
		{"fig9", Fig9, "PTF dataset phase breakdown"},
		{"fig10", Fig10, "cosmology dataset phase breakdown"},
		{"tab4", Table4, "RDFA on the PTF and cosmology datasets"},
		{"ablation", Ablation, "ablations: run detection, stability overhead, merge balance, skew-aware partition"},
		{"baselines", Baselines, "every registered driver, bitonic and radix on Uniform, Zipf and (full mode) 16 distinct values"},
		{"algocmp", AlgoCompare, "the registered drivers of the baselines race, with auto's resolved choice"},
	}
}

// IDs lists experiment ids in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// About returns the one-line description for id ("" if unknown).
func About(id string) string {
	for _, e := range registry {
		if e.ID == id {
			return e.About
		}
	}
	return ""
}

// Lookup returns the runner for id.
func Lookup(id string) (Runner, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// sorterKind names the sorter under test: a driver of the algo
// registry, or kindSDSStable, the sds driver in its stable mode.
type sorterKind string

const (
	kindSDS       sorterKind = algo.NameSDS
	kindSDSStable sorterKind = algo.NameSDS + "/stable"
	kindHyk       sorterKind = algo.NameHyk
	kindPSRS      sorterKind = algo.NamePSRS
)

// outcome is one distributed sort run's measurement.
type outcome struct {
	Elapsed time.Duration
	Loads   []int
	Phases  map[metrics.Phase]time.Duration
	// OOM is set when the run died of the emulated memory limit (the
	// paper reports such runs as ∞ / failed).
	OOM bool
	Err error
}

// runCfg parameterises runSort.
type runCfg struct {
	topo cluster.Topology
	// budgetMultiple × fair share per rank; 0 = unlimited.
	budgetMultiple float64
	totalBytes     int64
	// opt carries the shared exchange tunables for every kind; the
	// τm/τo/τs and Stable fields only reach the SDS kinds (the baseline
	// drivers map the subset they understand).
	opt core.Options
	// selection, when non-nil, counts which driver each rank actually
	// ran (the resolved choice under auto).
	selection *metrics.AlgoStats
	wrap      func(comm.Transport) comm.Transport
}

// runSort runs one collective sort of the given kind over generated
// per-rank data and measures wall time, final loads, and phases. All
// kinds dispatch through the algo driver registry, so an experiment
// exercises exactly the code path the front ends run.
func runSort[T any](kind sorterKind, rc runCfg, gen func(rank int) []T, cd codec.Codec[T], cmp func(a, b T) int) outcome {
	p := rc.topo.Size()
	loads := make([]int, p)
	timers := make([]*metrics.PhaseTimer, p)
	for i := range timers {
		timers[i] = metrics.NewPhaseTimer()
	}
	drv, err := algo.New[T](strings.TrimSuffix(string(kind), "/stable"))
	if err != nil {
		return outcome{Err: err}
	}
	start := time.Now()
	err = cluster.RunOpts(rc.topo, cluster.Options{WrapTransport: rc.wrap}, func(c *comm.Comm) error {
		data := gen(c.Rank())
		var mem *memlimit.Gauge
		if rc.budgetMultiple > 0 {
			mem = memlimit.New(memlimit.FairShareBudget(rc.totalBytes, p, rc.budgetMultiple))
		}
		aopt := algo.DefaultOptions()
		aopt.Core = rc.opt
		aopt.Core.Stable = kind == kindSDSStable
		aopt.Core.Mem = mem
		aopt.Core.Timer = timers[c.Rank()]
		aopt.Selection = rc.selection
		out, err := drv.Sort(context.Background(), c, data, cd, cmp, aopt)
		if err != nil {
			return err
		}
		loads[c.Rank()] = len(out)
		return nil
	})
	o := outcome{
		Elapsed: time.Since(start),
		Loads:   loads,
		Phases:  metrics.MergeMax(timers),
		Err:     err,
	}
	if err != nil && errors.Is(err, memlimit.ErrOutOfMemory) {
		o.OOM = true
	}
	return o
}

// fmtOutcomeTime renders a run's time cell, showing OOM for failed runs.
func fmtOutcomeTime(o outcome) string {
	if o.OOM {
		return "OOM"
	}
	if o.Err != nil {
		return "ERR"
	}
	return metrics.FmtDur(o.Elapsed)
}

// fmtOutcomeRDFA renders a run's RDFA cell: inf for a failed run, as the
// paper's tables print HykSort's OOM.
func fmtOutcomeRDFA(o outcome) string {
	if o.Err != nil {
		return "inf"
	}
	return metrics.FmtRDFA(metrics.RDFA(o.Loads))
}

// sizeLabel renders a byte count the way the paper labels its axes.
func sizeLabel(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// median3 runs f three times and returns the median duration, the
// paper's "repeated three times" methodology (it reports best; median
// is the steadier laptop equivalent).
func median3(f func() time.Duration) time.Duration {
	ds := []time.Duration{f(), f(), f()}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[1]
}
