package core

import (
	gocmp "cmp"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
	"sdssort/internal/recordio"
	"sdssort/internal/trace"
	"sdssort/internal/workload"
)

// TestSortZeroCopyMatchesMarshal: the zero-copy exchange is a pure
// acceleration, so with the same input and the same local ordering the
// outputs of the zero-copy and the marshal exchange must be identical
// record for record — across the sync-merge, sync-resort, overlap and
// staged shapes (the overlap merges its sources in a fixed order, so it
// is exact too). Tagged has no integer key, so neither side radix
// dispatches and the only difference under test is the exchange
// encoding, selected by hiding the codec's capabilities.
func TestSortZeroCopyMatchesMarshal(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	configs := []struct {
		name string
		opt  Options
	}{
		{"sync-merge", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1 << 20; o.TauM = 0; return o }()},
		{"sync-resort", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1; o.TauM = 0; return o }()},
		{"overlap", func() Options { o := DefaultOptions(); o.TauO = 1 << 20; o.TauM = 0; return o }()},
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
				equalOutputs(t, slow, fast, cfg.name)
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
		return Sort(c, local, plain, compareTagged, opt)
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
	if _, v, _ := radix.Dispatch(data, new([]int64), codec.Int64{}, reverse, false, 0); v != radix.Refused {
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
	asc, v, _ := radix.Dispatch(append([]int64(nil), data...), new([]int64), codec.Int64{}, cmpInt64, false, 0)
	if v != radix.Sorted {
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

// sortFloats runs Sort over per-rank float64 inputs with a recorder
// attached and returns the blocks and the closed spans.
func sortFloats(t *testing.T, topo cluster.Topology, in [][]float64, cmp func(a, b float64) int, opt Options) ([][]float64, []trace.SpanRecord) {
	t.Helper()
	rec := trace.NewRing(ringCap)
	opt.Trace = rec
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
		return Sort(c, slices.Clone(in[c.Rank()]), f64, cmp, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, trace.BuildSpans(recorded(t, rec, ""))
}

// spanDetails returns detail key of every span called name, by rank.
func spanDetails(spans []trace.SpanRecord, name, key string) map[int]any {
	got := map[int]any{}
	for _, sp := range spans {
		if sp.Name == name {
			got[sp.Rank] = sp.Detail[key]
		}
	}
	return got
}

// TestFloatKeyDispatch drives the float-key radix dispatch through Sort
// on the values a bit flip could get wrong and the comparators it must
// yield to. Every case must come out sorted under the caller's own
// comparator — within each block and across block boundaries — and as
// a permutation of the input bit for bit, with the localsort span
// naming the kernel that ran. The NaN case under a </> comparator runs
// on one rank: NaN compares equal to everything there, which no
// distributed partition can order, but the local dispatch must still
// accept the radix result (NaNs parked past the infinities) and lose
// nothing.
func TestFloatKeyDispatch(t *testing.T) {
	const perRank = 2000
	negZero, nan := math.Copysign(0, -1), math.NaN()
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	reverse := func(a, b float64) int { return cmpF(b, a) }
	world, single := cluster.Topology{Nodes: 2, CoresPerNode: 2}, cluster.Topology{Nodes: 1, CoresPerNode: 1}
	// random spreads normal floats of both signs over many magnitudes,
	// with one of specials in every eighth slot.
	random := func(specials ...float64) func(rng *rand.Rand, i int) float64 {
		return func(rng *rand.Rand, i int) float64 {
			if len(specials) > 0 && i%8 == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	cases := []struct {
		name     string
		topo     cluster.Topology
		gen      func(rng *rand.Rand, i int) float64
		cmp      func(a, b float64) int
		kernel   string
		fallback bool
	}{
		{"signed zeros", world, random(negZero, 0), cmpF, "radix", false},
		{"infinities and subnormals", world,
			random(math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64), cmpF, "radix", false},
		{"all equal", world, func(*rand.Rand, int) float64 { return 0.25 }, cmpF, "runs", false},
		{"already sorted", world, func(_ *rand.Rand, i int) float64 { return float64(i) }, cmpF, "runs", false},
		{"NaN under a </> comparator", single, random(nan, negNaN), cmpF, "radix", false},
		{"NaN under cmp.Compare", world, random(nan, negNaN), gocmp.Compare[float64], "comparison", true},
		{"reversed comparator", world, random(), reverse, "comparison", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			in := make([][]float64, tc.topo.Size())
			var inBits, outBits []uint64
			for r := range in {
				for i := 0; i < perRank; i++ {
					v := tc.gen(rng, r*perRank+i)
					in[r] = append(in[r], v)
					inBits = append(inBits, math.Float64bits(v))
				}
			}
			opt := DefaultOptions()
			opt.TauM = 0
			out, spans := sortFloats(t, tc.topo, in, tc.cmp, opt)

			flat := slices.Concat(out...)
			if !psort.IsSorted(flat, tc.cmp) {
				t.Error("output is not sorted under the caller's comparator")
			}
			for _, v := range flat {
				outBits = append(outBits, math.Float64bits(v))
			}
			slices.Sort(inBits)
			slices.Sort(outBits)
			if !slices.Equal(inBits, outBits) {
				t.Error("output is not a bit-for-bit permutation of the input")
			}
			kernels, fallbacks := spanDetails(spans, "localsort", "kernel"), spanDetails(spans, "localsort", "fallback")
			if len(kernels) != tc.topo.Size() {
				t.Fatalf("%d localsort spans, want %d", len(kernels), tc.topo.Size())
			}
			for r, k := range kernels {
				if k != tc.kernel || (fallbacks[r] == true) != tc.fallback {
					t.Errorf("rank %d: localsort kernel %v fallback %v, want %s fallback %v", r, k, fallbacks[r], tc.kernel, tc.fallback)
				}
			}
		})
	}
}

// TestLocalSortInsertionDetail: the localsort span counts the buckets
// the radix kernel's insertion finish sorted, those it declined and those
// that overran its budget into the LSD loop — one bucket per rank here.
// Wide random keys finish; keys nine in ten of which tie in their top two
// digits decline it; keys of both signs, whose grid the sign bit anchors
// at bit 64, and whose top two digits there repeat a 6-bit value, in
// groups those digits' counts do not show, overrun; keys that differ in
// two digits take the LSD loop alone.
func TestLocalSortInsertionDetail(t *testing.T) {
	const perRank = 2000
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	for _, tc := range []struct {
		name                        string
		gen                         func(rng *rand.Rand) float64
		finished, declined, overrun int
	}{
		{"wide keys", func(rng *rand.Rand) float64 { return rng.Float64() }, 1, 0, 0},
		{"tied top digits", func(rng *rand.Rand) float64 {
			if rng.Intn(10) == 0 {
				return rng.Float64() * 1000
			}
			return 1 + rng.Float64()/(1<<20)
		}, 0, 1, 0},
		{"repeated top digits", func(rng *rand.Rand) float64 { // digits from bit 53 and 42
			a := rng.Uint64() % 64
			return math.Float64frombits(rng.Uint64()>>63<<63 | a<<53 | a<<42 | rng.Uint64()&(1<<42-1))
		}, 0, 0, 1},
		{"two digits", func(rng *rand.Rand) float64 { return 1 + float64(rng.Intn(1<<22))/(1<<52) }, 0, 0, 0},
	} {
		rng := rand.New(rand.NewSource(23))
		in := make([][]float64, topo.Size())
		for r := range in {
			for range perRank {
				in[r] = append(in[r], tc.gen(rng))
			}
		}
		opt := DefaultOptions()
		opt.TauM = 0
		out, spans := sortFloats(t, topo, in, cmpF, opt)
		if flat := slices.Concat(out...); len(flat) != topo.Size()*perRank || !slices.IsSorted(flat) {
			t.Fatalf("%s: output not the input sorted", tc.name)
		}
		kernels := spanDetails(spans, "localsort", "kernel")
		finished, declined := spanDetails(spans, "localsort", "insertion_finished"), spanDetails(spans, "localsort", "insertion_declined")
		overrun := spanDetails(spans, "localsort", "insertion_overrun")
		for r := range topo.Size() {
			if kernels[r] != "radix" || finished[r] != tc.finished || declined[r] != tc.declined || overrun[r] != tc.overrun {
				t.Errorf("%s, rank %d: kernel %v, insertion finished %v, declined %v, overran %v; want radix, %d, %d, %d",
					tc.name, r, kernels[r], finished[r], declined[r], overrun[r], tc.finished, tc.declined, tc.overrun)
			}
		}
	}
}

// TestSpillChunksFinish: uniform_spill's chunks, 64 Ki float64 that its
// 2 MiB budget cuts, are one bucket each, and each takes the insertion
// finish on the grid anchored at the top of its keys' diff: every rank's
// localsort span reads the radix kernel and as many finished buckets as
// runs, none declined or overrun.
func TestSpillChunksFinish(t *testing.T) {
	const budget, chunk, runs = 2 << 20, 1 << 16, 3
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 1}
	path := filepath.Join(t.TempDir(), "uniform.f64")
	if err := recordio.WriteFile(path, f64, workload.Uniform(1, topo.Size()*runs*chunk)); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRing(ringCap)
	if _, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]float64, error) {
		opt := DefaultOptions()
		opt.StageBytes, opt.Mem, opt.Trace = budget/8, memlimit.New(budget), rec
		opt.Spill = &SpillOptions{Dir: t.TempDir()}
		opt.Spill.FitBudget(budget)
		sp, err := SortFileShard(c, path, f64, cmpF, opt)
		if err != nil {
			return nil, err
		}
		return nil, sp.Remove()
	}); err != nil {
		t.Fatal(err)
	}
	spans := spansNamed(t, rec, "localsort")
	if len(spans) != topo.Size() {
		t.Fatalf("%d localsort spans, want %d", len(spans), topo.Size())
	}
	for _, sp := range spans {
		d := sp.Detail
		if d["runs"] != runs || d["kernel"] != "radix" || d["insertion_finished"] != runs || d["insertion_declined"] != 0 || d["insertion_overrun"] != 0 {
			t.Errorf("rank %d: %v runs, kernel %v, insertion finished %v, declined %v, overran %v; want %d, radix, %d, 0, 0",
				sp.Rank, d["runs"], d["kernel"], d["insertion_finished"], d["insertion_declined"], d["insertion_overrun"], runs, runs)
		}
	}
}

// TestLocalOrderKernelDetail: the localorder span names its kernel too —
// the merge of the received runs below τs and the radix re-sort of the
// slab above it, stable or not.
func TestLocalOrderKernelDetail(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	rng := rand.New(rand.NewSource(22))
	in := make([][]float64, topo.Size())
	for r := range in {
		for i := 0; i < 500; i++ {
			in[r] = append(in[r], rng.NormFloat64())
		}
	}
	for _, tc := range []struct {
		name   string
		tauS   int
		stable bool
		kernel string
	}{
		{"merge", 1 << 20, false, "runs"},
		{"resort", 1, false, "radix"},
		{"stable resort", 1, true, "radix"},
	} {
		opt := DefaultOptions()
		opt.TauM, opt.TauO, opt.TauS, opt.Stable = 0, 0, tc.tauS, tc.stable
		out, spans := sortFloats(t, topo, in, cmpF, opt)
		if !psort.IsSorted(slices.Concat(out...), cmpF) {
			t.Errorf("%s: output not sorted", tc.name)
		}
		kernels := spanDetails(spans, "localorder", "kernel")
		if len(kernels) != topo.Size() {
			t.Fatalf("%s: %d localorder spans, want %d", tc.name, len(kernels), topo.Size())
		}
		for r, k := range kernels {
			if k != tc.kernel {
				t.Errorf("%s: rank %d localorder kernel %v, want %s", tc.name, r, k, tc.kernel)
			}
		}
	}
}

// TestOverlapMergesPerSource: the overlapped exchange merges a source's
// run once, when its last chunk has landed, not once per chunk. With
// three records to a chunk every source delivers dozens of chunks, yet
// no rank of the 3 x 2 world may report more than p-1 merges.
func TestOverlapMergesPerSource(t *testing.T) {
	topo := cluster.Topology{Nodes: 3, CoresPerNode: 2}
	p := topo.Size()
	in := makeTagged(p, 400, uniformGen(91))
	rec := trace.NewRing(ringCap)
	opt := DefaultOptions()
	opt.TauM = 0
	opt.StageBytes = 3 * int64(taggedCodec.Size())
	opt.Exchange = &metrics.ExchangeStats{}
	opt.Trace = rec
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)

	merges := spanDetails(trace.BuildSpans(recorded(t, rec, "")), "exchange", "merges")
	if len(merges) != p {
		t.Fatalf("%d overlapped exchange spans, want %d", len(merges), p)
	}
	total := 0
	for r, m := range merges {
		n, ok := m.(int)
		if !ok || n > p-1 {
			t.Errorf("rank %d reports merges = %v, want an int of at most %d", r, m, p-1)
		}
		total += n
	}
	if chunks := opt.Exchange.StageChunks.Load(); total == 0 || chunks < 10*int64(total) {
		t.Fatalf("%d merges for %d chunks: the test no longer separates runs from chunks", total, chunks)
	}
}

// The local-sort benchmarks run at a workload's per-rank size — 1 Mi
// records (256 Ki particles), far past a core's L2, where the kernel's
// memory traffic shows — or, for the spill workload, at its chunk, and
// report ns/record beside MB/s. Each pits the radix dispatch, agreement
// sweep included, against the comparison sort.

// localSortBench times dispatch on fresh copies of src as "radix", and
// sort as "comparison". The dispatch's block lands in the scratch, which
// then takes the block's place again, as a streamed sort's chunks do.
func localSortBench[T any](b *testing.B, src []T, cd codec.Codec[T], cmp func(a, b T) int, stable bool, sort func([]T, func(a, b T) int)) {
	n := len(src)
	data := make([]T, n)
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
	}
	b.Run("radix", func(b *testing.B) {
		var scratch []T
		b.SetBytes(int64(n * cd.Size()))
		for i := 0; i < b.N; i++ {
			copy(data, src)
			block, v, _ := radix.Dispatch(data, &scratch, cd, cmp, stable, 0)
			if v != radix.Sorted || &block[0] == &data[0] {
				b.Fatal("dispatch refused the records, or found them sorted")
			}
			scratch = block
		}
		report(b)
	})
	b.Run("comparison", func(b *testing.B) {
		b.SetBytes(int64(n * cd.Size()))
		for i := 0; i < b.N; i++ {
			copy(data, src)
			sort(data, cmp)
		}
		report(b)
	})
}

// BenchmarkLocalSortIntKeys: uniform int64 keys.
func BenchmarkLocalSortIntKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := make([]int64, 1<<20)
	for i := range src {
		src[i] = int64(rng.Uint64())
	}
	localSortBench(b, src, codec.Int64{}, cmpInt64, false, psort.Sort[int64])
}

// BenchmarkLocalSortFloatKeys: uniform_inproc's uniform float64 keys
// (workload.Uniform), 1 Mi of them, which take the kernel's split.
func BenchmarkLocalSortFloatKeys(b *testing.B) {
	localSortBench(b, workload.Uniform(9, 1<<20), f64, cmpF, false, psort.Sort[float64])
}

// BenchmarkLocalSortSpillChunk: one uniform_spill chunk, the 64 Ki
// float64 that chunkRecords cuts under its 2 MiB budget: one bucket,
// sorted on the grid anchored at the top of its keys' diff.
func BenchmarkLocalSortSpillChunk(b *testing.B) {
	n := (&SpillOptions{}).chunkRecords(int64(f64.Size()), 2<<20)
	localSortBench(b, workload.Uniform(9, n), f64, cmpF, false, psort.Sort[float64])
}

// BenchmarkLocalSortStableKeys: ptf_stable_tcp's records (workload.PTF:
// 16 bytes, 28 % of the scores 0, the rest u²), swept under the stable
// agreement rule, against the merge sort.
func BenchmarkLocalSortStableKeys(b *testing.B) {
	localSortBench(b, workload.PTF(9, 1<<20), codec.PTFCodec{}, codec.ComparePTF, true, psort.StableSort[codec.PTFRecord])
}

// BenchmarkLocalSortParticleKeys: cosmo_skew_inproc's 32-byte particles,
// power-law duplicated halo ids.
func BenchmarkLocalSortParticleKeys(b *testing.B) {
	src := workload.Cosmology(9, 1<<18)
	localSortBench(b, src, codec.ParticleCodec{}, codec.CompareParticles, false, psort.Sort[codec.Particle])
}
