package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/codec"
)

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(42, 100)
	b := Uniform(42, 100)
	if !slices.Equal(a, b) {
		t.Fatal("same seed produced different data")
	}
	c := Uniform(43, 100)
	if slices.Equal(a, c) {
		t.Fatal("different seeds produced identical data")
	}
	for _, v := range a {
		if v < 0 || v >= 1 {
			t.Fatalf("value %v out of [0,1)", v)
		}
	}
}

func TestZipfMatchesPaperTable2(t *testing.T) {
	// The paper's Table 2: α → δ(%). Our universe is calibrated to
	// reproduce it; allow moderate tolerance since δ also reflects
	// sampling noise.
	want := map[float64]float64{
		0.4: 0.2, 0.5: 0.5, 0.6: 1.0, 0.7: 2.0, 0.8: 3.7, 0.9: 6.4,
	}
	for alpha, deltaPct := range want {
		z := NewZipf(alpha, DefaultZipfUniverse)
		got := z.MaxProbability() * 100
		if got < deltaPct/2 || got > deltaPct*2 {
			t.Errorf("α=%v: δ=%.2f%%, paper %.1f%%", alpha, got, deltaPct)
		}
	}
	// Table 1 settings.
	if got := NewZipf(1.4, DefaultZipfUniverse).MaxProbability() * 100; got < 25 || got > 40 {
		t.Errorf("α=1.4: δ=%.1f%%, paper 32%%", got)
	}
	if got := NewZipf(2.1, DefaultZipfUniverse).MaxProbability() * 100; got < 55 || got > 70 {
		t.Errorf("α=2.1: δ=%.1f%%, paper 63%%", got)
	}
}

func TestZipfSampleRange(t *testing.T) {
	z := NewZipf(1.1, 50)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 51)
	for i := 0; i < 20000; i++ {
		v := z.Sample(rng)
		if v < 1 || v > 50 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// Monotone-ish decay: value 1 must dominate value 10.
	if counts[1] < counts[10]*2 {
		t.Fatalf("no Zipf decay: counts[1]=%d counts[10]=%d", counts[1], counts[10])
	}
}

func TestZipfKeysEmpiricalDelta(t *testing.T) {
	keys := ZipfKeys(7, 100000, 1.4, DefaultZipfUniverse)
	delta := DupRatio(keys)
	if delta < 0.25 || delta > 0.40 {
		t.Fatalf("empirical δ=%.3f, want ≈0.32", delta)
	}
}

func TestNewZipfPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 10) },
		func() { NewZipf(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDupRatio(t *testing.T) {
	if got := DupRatio([]int{1, 1, 1, 2}); got != 0.75 {
		t.Fatalf("got %v", got)
	}
	if got := DupRatio([]int{}); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := DupRatio([]int{5}); got != 1 {
		t.Fatalf("single: %v", got)
	}
}

func TestKSorted(t *testing.T) {
	data := KSorted(1, 1000, 8)
	if len(data) != 1000 {
		t.Fatalf("length %d", len(data))
	}
	runs := 1
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			runs++
		}
	}
	if runs > 8 {
		t.Fatalf("%d runs, want <= 8", runs)
	}
	if d := KSorted(1, 100, 0); len(d) != 100 {
		t.Fatal("blocks=0 must clamp")
	}
}

func TestReversed(t *testing.T) {
	data := Reversed(10)
	for i := 1; i < len(data); i++ {
		if data[i] >= data[i-1] {
			t.Fatal("not strictly decreasing")
		}
	}
}

func TestPTFDupRatio(t *testing.T) {
	recs := PTF(3, 100000)
	keys := make([]float64, len(recs))
	for i, r := range recs {
		keys[i] = r.Score
		if r.Score < 0 || r.Score > 1 {
			t.Fatalf("score %v out of [0,1]", r.Score)
		}
	}
	delta := DupRatio(keys)
	if math.Abs(delta-PTFDupRatio) > 0.02 {
		t.Fatalf("PTF δ=%.4f, want ≈%.4f", delta, PTFDupRatio)
	}
	// Object ids unique within a generation.
	seen := map[uint64]bool{}
	for _, r := range recs[:1000] {
		if seen[r.ObjID] {
			t.Fatal("duplicate ObjID")
		}
		seen[r.ObjID] = true
	}
}

func TestCosmologyDupRatio(t *testing.T) {
	parts := Cosmology(4, 200000)
	ids := make([]int64, len(parts))
	for i, p := range parts {
		ids[i] = p.ClusterID
		if p.ClusterID < 1 {
			t.Fatalf("cluster id %d", p.ClusterID)
		}
	}
	delta := DupRatio(ids)
	if delta < CosmoDupRatio/2 || delta > CosmoDupRatio*2 {
		t.Fatalf("cosmology δ=%.5f, want ≈%.5f", delta, CosmoDupRatio)
	}
	// The snapshot must arrive shuffled, not grouped by cluster.
	sortedPrefix := 0
	for i := 1; i < len(parts); i++ {
		if parts[i].ClusterID >= parts[i-1].ClusterID {
			sortedPrefix++
		}
	}
	if float64(sortedPrefix) > 0.7*float64(len(parts)) {
		t.Fatal("cosmology data appears unshuffled")
	}
}

func TestCosmologyPayloadPopulated(t *testing.T) {
	parts := Cosmology(5, 1000)
	var nonZero bool
	for _, p := range parts {
		if p.Pos != [3]float32{} || p.Vel != [3]float32{} {
			nonZero = true
			break
		}
	}
	if !nonZero {
		t.Fatal("payload all zero")
	}
	_ = codec.Particle(parts[0]) // types line up with the codec package
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 1, 2, 1})
	if s.N != 5 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("%+v", s)
	}
	if s.DupRatio != 0.6 { // three 1s of five
		t.Fatalf("δ=%v", s.DupRatio)
	}
	if s.Distinct != 3 {
		t.Fatalf("distinct=%d", s.Distinct)
	}
	if s.Runs != 3 { // [3] [1 1 2] [1]
		t.Fatalf("runs=%d", s.Runs)
	}
	if z := Summarize(nil); z.N != 0 || z.Runs != 0 {
		t.Fatalf("empty: %+v", z)
	}
}
