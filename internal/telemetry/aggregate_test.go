package telemetry

import (
	"strings"
	"testing"
	"time"

	"sdssort/internal/comm"
)

// buildWorld sets up a 3-rank in-proc fabric where every rank carries a
// registry with rank-distinct counter values, responders parked on
// ranks 1 and 2, and the aggregator on rank 0.
func buildWorld(t *testing.T) *Aggregator {
	t.Helper()
	world, err := comm.NewWorld(3, comm.BlockNodes(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { world.Close() })

	regs := make([]*Registry, 3)
	for r := 0; r < 3; r++ {
		regs[r] = NewRegistry()
		regs[r].Counter("sds_test_frames_total", "Frames.").Add(int64(10 + r))
		h := regs[r].Histogram("sds_test_job_seconds", "Jobs.", []float64{1, 10})
		h.Observe(0.5)
		h.Observe(float64(r) * 5)
	}
	StartResponder(world.Transport(1), "world", regs[1])
	StartResponder(world.Transport(2), "world", regs[2])
	return NewAggregator(world.Transport(0), "world", regs[0], time.Hour)
}

func TestAggregatorSumsFabric(t *testing.T) {
	agg := buildWorld(t)
	if age := agg.GatherAge(); age >= 0 {
		t.Fatalf("GatherAge before first gather = %v, want negative", age)
	}
	if err := agg.RefreshNow(); err != nil {
		t.Fatal(err)
	}
	if age := agg.GatherAge(); age < 0 {
		t.Fatalf("GatherAge after gather = %v", age)
	}

	var b strings.Builder
	agg.Render(&b)
	out := b.String()
	for _, want := range []string{
		"sds_fabric_ranks 3\n",
		"sds_fabric_gathers_total 1\n",
		"sds_fabric_gather_errors_total 0\n",
		"# TYPE sds_fabric_test_frames_total counter\n",
		"sds_fabric_test_frames_total 33\n",            // 10+11+12
		`sds_fabric_test_job_seconds_bucket{le="1"} 4`, // rank 0 contributes {0.5, 0}, ranks 1 and 2 just {0.5}
		"sds_fabric_test_job_seconds_count 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderKicksBackgroundRefresh(t *testing.T) {
	world, err := comm.NewWorld(2, comm.BlockNodes(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { world.Close() })
	remote := NewRegistry()
	remote.Counter("sds_test_total", "").Add(5)
	StartResponder(world.Transport(1), "world", remote)

	local := NewRegistry()
	// Tiny maxAge so every Render finds the cache stale.
	agg := NewAggregator(world.Transport(0), "world", local, time.Nanosecond)

	// First render: empty cache, kicks a refresh in the background.
	var b strings.Builder
	agg.Render(&b)
	if !strings.Contains(b.String(), "sds_fabric_gather_age_seconds -1\n") {
		t.Errorf("first render should report no gather yet:\n%s", b.String())
	}
	// The kicked gather lands shortly; totals then appear on a scrape.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var b strings.Builder
		agg.Render(&b)
		if strings.Contains(b.String(), "sds_fabric_test_total 5\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background gather never landed:\n%s", b.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAggregatorExcludesDeadRank: a rank that stops answering costs a
// few failed (stale-cache) gathers, then is excluded so the fabric
// serves partial totals from the survivors instead of logging gather
// errors forever.
func TestAggregatorExcludesDeadRank(t *testing.T) {
	world, err := comm.NewWorld(3, comm.BlockNodes(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { world.Close() })
	regs := make([]*Registry, 3)
	for r := 0; r < 3; r++ {
		regs[r] = NewRegistry()
		regs[r].Counter("sds_test_frames_total", "Frames.").Add(int64(10 + r))
	}
	// Rank 2 has no responder — it is dead from the aggregator's view.
	StartResponder(world.Transport(1), "world", regs[1])
	agg := NewAggregator(world.Transport(0), "world", regs[0], time.Hour)
	agg.SetRecvTimeout(30 * time.Millisecond)

	// The first lostThreshold gathers fail (reply timeout) and keep the
	// cache stale; the streak then excludes rank 2.
	for i := 0; i < lostThreshold; i++ {
		if err := agg.RefreshNow(); err == nil {
			t.Fatalf("gather %d succeeded with rank 2 silent", i)
		}
	}
	if lost := agg.Lost(); len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("Lost() = %v after %d failures, want [2]", agg.Lost(), lostThreshold)
	}
	// With rank 2 excluded the gather succeeds on partial totals.
	if err := agg.RefreshNow(); err != nil {
		t.Fatalf("gather after exclusion: %v", err)
	}
	var b strings.Builder
	agg.Render(&b)
	out := b.String()
	for _, want := range []string{
		"sds_fabric_world_size 2\n",
		"sds_fabric_degraded 1\n",
		"sds_fabric_test_frames_total 21\n", // 10+11, rank 2 missing
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestMarkLostSkipsRankImmediately: a supervisor that knows a rank died
// short-circuits the failure-streak discovery.
func TestMarkLostSkipsRankImmediately(t *testing.T) {
	agg := buildWorld(t)
	agg.MarkLost(2)
	agg.MarkLost(0)  // the aggregator itself: no-op
	agg.MarkLost(99) // out of range: no-op
	if err := agg.RefreshNow(); err != nil {
		t.Fatal(err)
	}
	if lost := agg.Lost(); len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("Lost() = %v, want [2]", lost)
	}
	var b strings.Builder
	agg.Render(&b)
	out := b.String()
	if !strings.Contains(out, "sds_fabric_test_frames_total 21\n") { // 10+11
		t.Errorf("marked rank still counted:\n%s", out)
	}
	if !strings.Contains(out, "sds_fabric_world_size 2\n") {
		t.Errorf("world size ignores the marked rank:\n%s", out)
	}
}

func TestGatherErrorKeepsStaleCache(t *testing.T) {
	world, err := comm.NewWorld(2, comm.BlockNodes(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	remote := NewRegistry()
	remote.Counter("sds_test_total", "").Add(7)
	StartResponder(world.Transport(1), "world", remote)
	local := NewRegistry()
	agg := NewAggregator(world.Transport(0), "world", local, time.Hour)
	if err := agg.RefreshNow(); err != nil {
		t.Fatal(err)
	}
	world.Close() // rank 1 gone: the next gather must fail

	if err := agg.RefreshNow(); err == nil {
		t.Fatal("gather against a closed fabric succeeded")
	}
	var b strings.Builder
	agg.Render(&b)
	out := b.String()
	if !strings.Contains(out, "sds_fabric_test_total 7\n") {
		t.Errorf("stale totals dropped after failed gather:\n%s", out)
	}
	if !strings.Contains(out, "sds_fabric_gather_errors_total 1\n") {
		t.Errorf("gather error not counted:\n%s", out)
	}
}
