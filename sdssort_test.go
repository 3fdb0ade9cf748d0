package sdssort

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sdssort/internal/memlimit"
	"sdssort/internal/recordio"
	"sdssort/internal/workload"
)

func TestSorterSortLocalUniform(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	parts := make([][]float64, topo.Size())
	for r := range parts {
		parts[r] = workload.Uniform(int64(r+1), 500)
	}
	sorter := NewSorter[float64](Float64Codec(), Compare[float64])
	out, err := sorter.SortLocal(topo, parts)
	if err != nil {
		t.Fatal(err)
	}
	var flatIn, flatOut []float64
	for _, p := range parts {
		flatIn = append(flatIn, p...)
	}
	for _, p := range out {
		flatOut = append(flatOut, p...)
	}
	if !slices.IsSorted(flatOut) {
		t.Fatal("not sorted")
	}
	slices.Sort(flatIn)
	if !slices.Equal(flatIn, flatOut) {
		t.Fatal("not a permutation")
	}
}

type rec struct {
	Key float64
	Pos int32
}

func TestSorterStableOption(t *testing.T) {
	cd := recCodec{}
	cmp := func(a, b rec) int { return Compare(a.Key, b.Key) }
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	parts := make([][]rec, topo.Size())
	pos := int32(0)
	rng := rand.New(rand.NewSource(1))
	for r := range parts {
		rows := make([]rec, 300)
		for i := range rows {
			rows[i] = rec{Key: float64(rng.Intn(4)), Pos: pos}
			pos++
		}
		parts[r] = rows
	}
	sorter := NewSorter[rec](cd, cmp, Stable())
	out, err := sorter.SortLocal(topo, parts)
	if err != nil {
		t.Fatal(err)
	}
	var flat []rec
	for _, p := range out {
		flat = append(flat, p...)
	}
	for i := 1; i < len(flat); i++ {
		if flat[i-1].Key > flat[i].Key {
			t.Fatalf("not sorted at %d", i)
		}
		if flat[i-1].Key == flat[i].Key && flat[i-1].Pos > flat[i].Pos {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

// recCodec is a user-defined codec exercising the public Codec surface.
type recCodec struct{}

func (recCodec) Size() int { return 12 }

func (recCodec) Marshal(dst []byte, r rec) {
	Float64Codec().Marshal(dst, r.Key)
	dst[8] = byte(r.Pos)
	dst[9] = byte(r.Pos >> 8)
	dst[10] = byte(r.Pos >> 16)
	dst[11] = byte(r.Pos >> 24)
}

func (recCodec) Unmarshal(src []byte) rec {
	return rec{
		Key: Float64Codec().Unmarshal(src),
		Pos: int32(src[8]) | int32(src[9])<<8 | int32(src[10])<<16 | int32(src[11])<<24,
	}
}

func TestSortStatsReportsPhases(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 1}
	sorter := NewSorter[float64](Float64Codec(), Compare[float64])
	var total atomic.Int64
	err := RunLocal(topo, func(c *Comm) error {
		data := workload.Uniform(int64(c.Rank()), 2000)
		out, stats, err := sorter.SortStats(c, data)
		if err != nil {
			return err
		}
		if stats.Records != len(out) {
			return errors.New("stats.Records mismatch")
		}
		if stats.Phases.Total() <= 0 {
			return errors.New("no phase time recorded")
		}
		total.Add(int64(stats.Records))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 2*2000 {
		t.Fatalf("total records %d", total.Load())
	}
}

func TestMemoryBudgetOption(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 1}
	parts := [][]float64{workload.Uniform(1, 1000), workload.Uniform(2, 1000)}
	sorter := NewSorter[float64](Float64Codec(), Compare[float64], MemoryBudget(64))
	_, err := sorter.SortLocal(topo, parts)
	if !errors.Is(err, memlimit.ErrOutOfMemory) {
		t.Fatalf("got %v, want ErrOutOfMemory", err)
	}
}

func TestOptionSetters(t *testing.T) {
	s := NewSorter[float64](Float64Codec(), Compare[float64],
		Stable(), Cores(4), TauM(1<<20), TauO(7), TauS(9), RunThreshold(12))
	opt := s.options()
	if !opt.Stable || opt.Cores != 4 || opt.TauM != 1<<20 || opt.TauO != 7 || opt.TauS != 9 || opt.RunThreshold != 12 {
		t.Fatalf("options not applied: %+v", opt)
	}
}

func TestSortLocalPadsShortParts(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	parts := [][]float64{{3, 1, 2}} // fewer parts than ranks
	sorter := NewSorter[float64](Float64Codec(), Compare[float64])
	out, err := sorter.SortLocal(topo, parts)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, p := range out {
		flat = append(flat, p...)
	}
	if !slices.Equal(flat, []float64{1, 2, 3}) {
		t.Fatalf("got %v", flat)
	}
}

func TestPTFAndParticleHelpers(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	parts := make([][]PTFRecord, topo.Size())
	for r := range parts {
		parts[r] = workload.PTF(int64(r), 500)
	}
	sorter := NewSorter[PTFRecord](PTFCodec(), ComparePTF)
	out, err := sorter.SortLocal(topo, parts)
	if err != nil {
		t.Fatal(err)
	}
	var flat []PTFRecord
	for _, p := range out {
		flat = append(flat, p...)
	}
	if len(flat) != topo.Size()*500 {
		t.Fatalf("count %d", len(flat))
	}
	for i := 1; i < len(flat); i++ {
		if flat[i-1].Score > flat[i].Score {
			t.Fatal("PTF output not sorted by score")
		}
	}

	pparts := make([][]Particle, topo.Size())
	for r := range pparts {
		pparts[r] = workload.Cosmology(int64(r), 500)
	}
	psorter := NewSorter[Particle](ParticleCodec(), CompareParticles)
	pout, err := psorter.SortLocal(topo, pparts)
	if err != nil {
		t.Fatal(err)
	}
	var pflat []Particle
	for _, p := range pout {
		pflat = append(pflat, p...)
	}
	for i := 1; i < len(pflat); i++ {
		if pflat[i-1].ClusterID > pflat[i].ClusterID {
			t.Fatal("particles not sorted by cluster id")
		}
	}
}

func TestCompareHelper(t *testing.T) {
	if Compare(1, 2) != -1 || Compare(2, 1) != 1 || Compare(3, 3) != 0 {
		t.Fatal("int compare")
	}
	if Compare("a", "b") != -1 {
		t.Fatal("string compare")
	}
	if Compare(1.5, 1.5) != 0 {
		t.Fatal("float compare")
	}
}

func TestPhaseTimesTotal(t *testing.T) {
	pt := PhaseTimes{PivotSelection: 1, Exchange: 2, LocalOrdering: 3, Other: 4}
	if pt.Total() != 10 {
		t.Fatal("total")
	}
}

func TestSortLocalStats(t *testing.T) {
	topo := Topology{Nodes: 2, CoresPerNode: 2}
	parts := make([][]float64, topo.Size())
	for r := range parts {
		parts[r] = workload.ZipfKeys(int64(r+1), 800, 1.4, workload.DefaultZipfUniverse)
	}
	sorter := NewSorter[float64](Float64Codec(), Compare[float64])
	out, stats, err := sorter.SortLocalStats(topo, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PerRank) != topo.Size() {
		t.Fatalf("%d per-rank stats", len(stats.PerRank))
	}
	total := 0
	for r, st := range stats.PerRank {
		if st.Records != len(out[r]) {
			t.Fatalf("rank %d stats.Records=%d, output %d", r, st.Records, len(out[r]))
		}
		total += st.Records
	}
	if total != topo.Size()*800 {
		t.Fatalf("total %d", total)
	}
	if stats.RDFA < 1 || stats.RDFA > 4 {
		t.Fatalf("RDFA %v outside the Theorem-1 envelope", stats.RDFA)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestTraceJSONOption(t *testing.T) {
	var buf syncBuffer
	topo := Topology{Nodes: 2, CoresPerNode: 1}
	sorter := NewSorter[float64](Float64Codec(), Compare[float64], TraceJSON(&buf))
	if _, err := sorter.SortLocal(topo, [][]float64{{2, 1}, {4, 3}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"sort"`) {
		t.Fatalf("trace missing events: %q", buf.String())
	}
}

// syncBuffer is a minimal concurrency-safe writer for the trace test.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

func TestExternalSortFile(t *testing.T) {
	dir := t.TempDir()
	in := dir + "/in.f64"
	out := dir + "/out.f64"
	keys := workload.ZipfKeys(11, 20000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codecFloat{}, keys); err != nil {
		t.Fatal(err)
	}
	if err := ExternalSortFile[float64](in, out, Float64Codec(), Compare[float64], 3000, false); err != nil {
		t.Fatal(err)
	}
	got, err := recordio.ReadFile(out, codecFloat{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("external sort mismatch")
	}
	// The output commits like every other route's: readable, and alone —
	// no temp beside it.
	if st, err := os.Stat(out); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("output mode %v, want 0644 (err=%v)", st.Mode().Perm(), err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 2 {
		t.Fatalf("%d entries beside in and out (err=%v)", len(ents), err)
	}
	// A failed sort leaves the previous output as it was.
	if err := os.WriteFile(in, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ExternalSortFile[float64](in, out, Float64Codec(), Compare[float64], 0, true); err == nil {
		t.Fatal("ragged input accepted")
	}
	if again, err := recordio.ReadFile(out, codecFloat{}); err != nil || !slices.Equal(again, want) {
		t.Fatalf("failed sort clobbered the previous output (err=%v)", err)
	}
}

// codecFloat mirrors the internal float codec for test-side file IO.
type codecFloat struct{}

func (codecFloat) Size() int { return 8 }

func (codecFloat) Marshal(dst []byte, v float64) { Float64Codec().Marshal(dst, v) }

func (codecFloat) Unmarshal(src []byte) float64 { return Float64Codec().Unmarshal(src) }
