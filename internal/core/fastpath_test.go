package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
)

// TestSortZeroCopyMatchesMarshal: the zero-copy exchange is a pure
// acceleration, so with the same input and the same local ordering the
// outputs of the zero-copy and the marshal exchange must be identical
// record for record — across the sync-merge, sync-resort, overlap and
// staged shapes. Tagged has no integer key, so neither side radix
// dispatches and the only difference under test is the exchange
// encoding, selected by hiding the codec's capabilities.
func TestSortZeroCopyMatchesMarshal(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	configs := []struct {
		name string
		opt  Options
		// The overlap exchange consumes chunks in arrival order, so
		// the placement of equal keys varies run to run even within one
		// encoding path; for it both runs are checked for sorted
		// permutations instead of record-for-record equality.
		exact bool
	}{
		{"sync-merge", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1 << 20; o.TauM = 0; return o }(), true},
		{"sync-resort", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1; o.TauM = 0; return o }(), true},
		{"overlap", func() Options { o := DefaultOptions(); o.TauO = 1 << 20; o.TauM = 0; return o }(), false},
	}
	for _, cfg := range configs {
		for _, stage := range []int64{0, 100} {
			t.Run(fmt.Sprintf("%s/stage%d", cfg.name, stage), func(t *testing.T) {
				in := makeTagged(topo.Size(), 400, zipfGen(63, 1.2))
				opt := cfg.opt
				opt.StageBytes = stage
				opt.Exchange = &metrics.ExchangeStats{}
				fast := runSort(t, topo, in, opt)
				checkSorted(t, in, fast, false)
				if !opt.Exchange.ZeroCopyUsed() {
					t.Fatal("zero-copy-capable codec took the marshal path")
				}
				opt.Exchange = &metrics.ExchangeStats{}
				slow := runSortCodec(t, topo, in, taggedCodecFor(false), opt)
				if opt.Exchange.ZeroCopyUsed() {
					t.Fatal("a codec with its capabilities hidden took the fast path")
				}
				if cfg.exact {
					equalOutputs(t, slow, fast, cfg.name)
				} else {
					checkSorted(t, in, slow, false)
				}
			})
		}
	}
}

// TestSortNonZeroCopyCodecFallsBack runs the staged exchange with a
// Funcs codec that does not declare zero copy: the sort must fall back
// to the marshal path (2x staging window, zero bytes through the
// zero-copy counters) and still produce sorted output.
func TestSortNonZeroCopyCodecFallsBack(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	plain := codec.Funcs[codec.Tagged]{
		Width:     16,
		MarshalFn: codec.TaggedCodec{}.Marshal,
		UnmarshFn: codec.TaggedCodec{}.Unmarshal,
	}
	if codec.IsZeroCopy[codec.Tagged](plain) {
		t.Fatal("test premise broken: Funcs without ZeroCopyOK qualified")
	}
	in := makeTagged(topo.Size(), 300, zipfGen(71, 1.3))
	const stage = 96
	opt := DefaultOptions()
	opt.TauM = 0
	opt.TauO = 0
	opt.StageBytes = stage
	opt.Exchange = &metrics.ExchangeStats{}
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.Tagged, error) {
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		return Sort(c, local, plain, codec.CompareTagged, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out, false)
	if opt.Exchange.ZeroCopyUsed() {
		t.Fatal("non-zero-copy codec moved bytes through the zero-copy path")
	}
	if got, want := opt.Exchange.PeakStagingReserved.Load(), 2*effStage(stage, 16); got != want {
		t.Fatalf("peak staging %d, want the marshal path's 2x window %d", got, want)
	}
}

// TestRadixDispatchComparatorFallback: the LSD dispatch orders by the
// codec's integer key, so a user comparator that disagrees (reverse
// order here) must be detected by the post-sort verification sweep and
// the comparison sort must win. The sorted-output check is the whole
// point: before the sweep a reversed comparator would silently return
// ascending data.
func TestRadixDispatchComparatorFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(rng.Uint64())
	}
	reverse := func(a, b int64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	}
	if radix.DispatchLocal(data, codec.Int64{}, reverse) {
		t.Fatal("dispatch claimed success against a disagreeing comparator")
	}
	// The core sort path must recover end to end.
	out, err := cluster.Gather(cluster.Topology{Nodes: 1, CoresPerNode: 1}, cluster.Options{}, func(c *comm.Comm) ([]int64, error) {
		local := append([]int64(nil), data...)
		return Sort(c, local, codec.Int64{}, reverse, DefaultOptions())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !psort.IsSorted(out[0], reverse) {
		t.Fatal("sort with a reverse comparator did not produce descending output")
	}

	// And with the agreeing comparator the dispatch must fire and agree
	// with the comparison sort exactly.
	asc := append([]int64(nil), data...)
	if !radix.DispatchLocal(asc, codec.Int64{}, cmpInt64) {
		t.Fatal("dispatch refused an agreeing comparator")
	}
	ref := append([]int64(nil), data...)
	psort.Sort(ref, cmpInt64)
	for i := range ref {
		if asc[i] != ref[i] {
			t.Fatalf("radix and comparison sorts disagree at %d: %d vs %d", i, asc[i], ref[i])
		}
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// BenchmarkLocalSortIntKeys is the issue's local-ordering acceptance
// benchmark: the LSD radix dispatch against the comparison sort on
// integer keys — the fast path must win.
func BenchmarkLocalSortIntKeys(b *testing.B) {
	const n = 1 << 17
	src := make([]int64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range src {
		src[i] = int64(rng.Uint64())
	}
	data := make([]int64, n)
	b.Run("radix", func(b *testing.B) {
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(data, src)
			if !radix.DispatchLocal(data, codec.Int64{}, cmpInt64) {
				b.Fatal("dispatch refused int64 keys")
			}
		}
	})
	b.Run("comparison", func(b *testing.B) {
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(data, src)
			psort.Sort(data, cmpInt64)
		}
	})
}
