package experiments

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"sdssort/internal/psort"
)

func quickCfg() Config { return Config{Quick: true, Seed: 42} }

// TestAllExperimentsRun executes every registered experiment in quick
// mode, sharing runs as sdsbench -exp all does: each must complete and
// produce at least one non-empty table.
func TestAllExperimentsRun(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = new(Runs)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			run, ok := Lookup(id)
			if !ok {
				t.Fatalf("experiment %s not found", id)
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.ID != id {
				t.Fatalf("result id %q", res.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range res.Tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("table %q has no rows", tbl.Title)
				}
			}
			if s := res.String(); !strings.Contains(s, id) {
				t.Fatal("rendering lacks id")
			}
		})
	}
}

func TestRegistryHelpers(t *testing.T) {
	if len(IDs()) != 17 {
		t.Fatalf("expected 17 experiments, got %d", len(IDs()))
	}
	if About("fig7") == "" {
		t.Fatal("missing About")
	}
	if About("nope") != "" {
		t.Fatal("unknown id has About")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

// TestMeasuredOnce: under a shared Runs a measurement runs once per
// name, Quick and Seed; without one it runs every time, and a failed
// run is not kept.
func TestMeasuredOnce(t *testing.T) {
	calls := 0
	run := func() (int, error) { calls++; return calls, nil }
	cfg := quickCfg()
	if a, _ := measured(cfg, "x", run); a != 1 {
		t.Fatalf("first unshared run = %d", a)
	}
	if b, _ := measured(cfg, "x", run); b != 2 {
		t.Fatalf("unshared runs must repeat, got %d", b)
	}
	cfg.Runs = new(Runs)
	first, _ := measured(cfg, "x", run)
	if again, _ := measured(cfg, "x", run); again != first {
		t.Fatalf("shared run repeated: %d then %d", first, again)
	}
	if other, _ := measured(cfg, "y", run); other == first {
		t.Fatal("a different name reused the run")
	}
	reseeded := cfg
	reseeded.Seed++
	if other, _ := measured(reseeded, "x", run); other == first {
		t.Fatal("a different seed reused the run")
	}
	fails := func() (int, error) { calls++; return 0, errors.New("boom") }
	if _, err := measured(cfg, "z", fails); err == nil {
		t.Fatal("error lost")
	}
	if v, err := measured(cfg, "z", run); err != nil || v != calls {
		t.Fatalf("failed run was kept: %d, %v", v, err)
	}
}

// TestAblationSortsOnlyTheSDSPair: run alone, Ablation 2 measures just
// the sds pair of the baselines' Zipf race, not the whole race.
func TestAblationSortsOnlyTheSDSPair(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = new(Runs)
	if _, err := Ablation(cfg); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range cfg.Runs.done {
		got = append(got, k.name)
	}
	slices.Sort(got)
	want := []string{
		"baselines " + baselineZipf.name + " " + string(kindSDS),
		"baselines " + baselineZipf.name + " " + string(kindSDSStable),
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ablation measured %q, want %q", got, want)
	}
}

// TestTablesRenderFigureRuns: with shared runs, Table 3 prints the RDFA
// of the Fig 7/8 runs, Table 4 that of the Fig 9/10 runs, and Ablation 2
// the times of the baselines' sds pair on Zipf. The times are
// microsecond-resolution wall clocks, so they match only if no run
// was repeated.
func TestTablesRenderFigureRuns(t *testing.T) {
	cfg := quickCfg()
	cfg.Runs = new(Runs)
	run := func(f Runner) *Result {
		t.Helper()
		res, err := f(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fig7, tab3 := run(Fig7), run(Table3)
	pts, err := weakScaling(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fig7.Tables[0].Rows[0][2]; got != fmtOutcomeTime(pts[0].sds) {
		t.Fatalf("fig7 SDS time %s, shared run %s: the sweep ran twice", got, fmtOutcomeTime(pts[0].sds))
	}
	for i, pt := range pts {
		if got := tab3.Tables[0].Rows[i][2]; got != fmtOutcomeRDFA(pt.sds) {
			t.Fatalf("tab3 p=%d SDS RDFA %s, shared run %s", pt.p, got, fmtOutcomeRDFA(pt.sds))
		}
	}

	fig9, fig10, tab4 := run(Fig9), run(Fig10), run(Table4)
	for i, fig := range []*Result{fig9, fig10} {
		phases, rdfa := fig.Tables[0].Rows, tab4.Tables[0].Rows[i]
		for j, sorter := range phases {
			if got, want := rdfa[2+j], sorter[len(sorter)-1]; got != want {
				t.Fatalf("tab4 %s %s RDFA %s, figure row %s", rdfa[0], sorter[0], got, want)
			}
		}
	}
	ptf, err := ptfRuns(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fig9.Tables[0].Rows[1][6]; got != fmtOutcomeTime(ptf.sds) {
		t.Fatalf("fig9 SDS total %s, shared run %s: the dataset was sorted twice", got, fmtOutcomeTime(ptf.sds))
	}

	baselines, ablation, algocmp := run(Baselines), run(Ablation), run(AlgoCompare)
	times := map[string]string{}
	for _, row := range baselines.Tables[1].Rows {
		times[row[0]] = row[1]
	}
	for _, row := range algocmp.Tables[1].Rows {
		if row[1] != times[row[0]] {
			t.Fatalf("algocmp Zipf %s time %s, baselines' %s: the race ran twice", row[0], row[1], times[row[0]])
		}
	}
	stability := ablation.Tables[1].Rows
	if stability[0][1] != times[string(kindSDS)] || stability[1][1] != times[string(kindSDSStable)] {
		t.Fatalf("ablation 2 times %v, baselines' Zipf sds pair %s / %s",
			stability, times[string(kindSDS)], times[string(kindSDSStable)])
	}
}

// TestFig8HykSortOOM asserts the headline skew claim is reproduced: on
// the Zipf workload HykSort dies of OOM while SDS-Sort completes.
func TestFig8HykSortOOM(t *testing.T) {
	points, err := weakScaling(quickCfg(), 2.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.sds.Err != nil || pt.stable.Err != nil {
			t.Errorf("p=%d: SDS variants must survive: %v / %v", pt.p, pt.sds.Err, pt.stable.Err)
		}
	}
	// The collapsed load is ~δ·p × the fair share, so OOM is
	// guaranteed from p=16 up at this budget; smaller points may
	// squeak through, as the paper's smallest scales would have with
	// enough node memory.
	last := points[len(points)-1]
	if !last.hyk.OOM {
		t.Errorf("p=%d: HykSort did not OOM on the δ=63%% workload (err=%v)", last.p, last.hyk.Err)
	}
}

// TestFig5cMergeGrowsWithP asserts the τs mechanism on counted work:
// Fig5c's merge makes about n⌈log₂ p⌉ comparisons, growing with the
// chunk count, while its re-sort makes the radix sweep's n-1 at every p.
// Comparisons, unlike times, do not shrink or stretch with a competing
// load on the host.
func TestFig5cMergeGrowsWithP(t *testing.T) {
	const total = 1 << 16
	ps := []int{4, 16, 64, 256, 1024}
	var calls int
	counting := func(a, b float64) int { calls++; return cmpF64(a, b) }
	count := func(f func()) float64 {
		calls = 0
		f()
		return float64(calls)
	}
	var merges, sorts []float64
	for _, p := range ps {
		chunks, concat := fig5cInput(7, total, p)
		merges = append(merges, count(func() { psort.KWayMerge(chunks, counting) }))
		sorts = append(sorts, count(func() { fig5cSort(concat, counting) }))
	}
	mergeGrowth := merges[len(ps)-1] / merges[0]
	sortGrowth := sorts[len(ps)-1] / sorts[0]
	t.Logf("comparisons, p %d -> %d: merge %v, sort %v; merge grows %.2fx, sort %.2fx",
		ps[0], ps[len(ps)-1], merges, sorts, mergeGrowth, sortGrowth)
	if mergeGrowth < 1.5*sortGrowth {
		t.Errorf("merge comparisons grew %.2fx from p=%d to p=%d, sort %.2fx: want merge to grow at least 1.5 times as much",
			mergeGrowth, ps[0], ps[len(ps)-1], sortGrowth)
	}
}
