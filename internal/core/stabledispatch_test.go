package core

import (
	gocmp "cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/radix"
	"sdssort/internal/trace"
)

var ptfCodec = codec.PTFCodec{}

// The comparators a stable radix dispatch must survive. All are strict
// weak orders over PTF records; they differ in how they relate to the
// codec's key (the score): the same order, a coarser one (key-distinct
// records compare equal), a finer one (key-equal records do not), the
// reverse, and cmp.Compare, which puts NaNs first where the key puts
// them past the infinities.
func ptfCoarse(a, b codec.PTFRecord) int {
	return gocmp.Compare(math.Floor(a.Score/8), math.Floor(b.Score/8))
}

func ptfFine(a, b codec.PTFRecord) int {
	if c := codec.ComparePTF(a, b); c != 0 {
		return c
	}
	return -gocmp.Compare(a.ObjID, b.ObjID)
}

func ptfReverse(a, b codec.PTFRecord) int { return codec.ComparePTF(b, a) }

func ptfNaNFirst(a, b codec.PTFRecord) int { return gocmp.Compare(a.Score, b.Score) }

// ptfCoarseHigh is the key's order below highScore and a coarser one at
// and above it: a generator that keeps high scores out of the first half
// of the input makes it disagree with the key on the second half alone.
const highScore = 1000

func ptfCoarseHigh(a, b codec.PTFRecord) int {
	f := func(s float64) float64 {
		if s < highScore {
			return s
		}
		return highScore + math.Floor((s-highScore)/8)
	}
	return gocmp.Compare(f(a.Score), f(b.Score))
}

// ptfInput builds n records, ObjID the input position, scores from gen.
func ptfInput(n int, gen func(i int) float64) []codec.PTFRecord {
	recs := make([]codec.PTFRecord, n)
	for i := range recs {
		recs[i] = codec.PTFRecord{Score: gen(i), ObjID: uint64(i)}
	}
	return recs
}

// samePTF is slices.Equal on the records' bits: NaN scores must match too.
func samePTF(a, b []codec.PTFRecord) bool {
	return slices.EqualFunc(a, b, func(x, y codec.PTFRecord) bool {
		return math.Float64bits(x.Score) == math.Float64bits(y.Score) && x.ObjID == y.ObjID
	})
}

// highOnlyInSecondHalf generates n scores whose first ⌈n/2⌉ stay far
// below highScore and whose rest straddle it: under ptfCoarseHigh only
// records from the second half of the input can disagree with the key.
func highOnlyInSecondHalf(rng *rand.Rand, n int) func(i int) float64 {
	return func(i int) float64 {
		if i < (n+1)/2 {
			return float64(rng.Intn(40))
		}
		return float64(highScore - 32 + rng.Intn(96))
	}
}

// stableResort re-sorts a copy of in under Stable, as localOrder does, and
// returns the sorted block and the span detail.
func stableResort(in []codec.PTFRecord, cmp func(a, b codec.PTFRecord) int, cores int) ([]codec.PTFRecord, map[string]any) {
	r := &run[codec.PTFRecord]{cd: ptfCodec, cmp: cmp, opt: Options{Stable: true, Cores: cores}}
	detail := map[string]any{}
	block, _ := r.order(slices.Clone(in), 0, detail)
	return block, detail
}

// TestStableDispatch holds the re-sort under Stable byte-equal to
// slices.SortStableFunc whatever the comparator thinks of the key, at
// the sizes where the block arithmetic could slip, and pins what the
// span says happened: radix when every sweep verifies, otherwise a
// fallback.
func TestStableDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	// dup draws from 40 scores, so most keys repeat; spread from many.
	dup := func(int) float64 { return float64(rng.Intn(40)) }
	spread := func(int) float64 { return (rng.Float64() - 0.5) * 1e4 }
	for _, tc := range []struct {
		name     string
		gen      func(n int) func(i int) float64
		cmp      func(a, b codec.PTFRecord) int
		fallback bool // at n >= 100
	}{
		{"agreeing, duplicated", func(int) func(int) float64 { return dup }, codec.ComparePTF, false},
		{"agreeing, spread", func(int) func(int) float64 { return spread }, codec.ComparePTF, false},
		{"all equal", func(int) func(int) float64 { return func(int) float64 { return 2.5 } }, codec.ComparePTF, false},
		{"signed zeros", func(int) func(int) float64 {
			return func(i int) float64 { return []float64{negZero, 0, 1, -1}[rng.Intn(4)] }
		}, codec.ComparePTF, false},
		{"coarser", func(int) func(int) float64 { return dup }, ptfCoarse, true},
		{"finer", func(int) func(int) float64 { return dup }, ptfFine, true},
		{"reversed", func(int) func(int) float64 { return spread }, ptfReverse, true},
		{"NaN first", func(int) func(int) float64 {
			return func(i int) float64 { return []float64{nan, negNaN, 1, -1, 3}[rng.Intn(5)] }
		}, ptfNaNFirst, true},
		{"coarser on the second half only", func(n int) func(int) float64 { return highOnlyInSecondHalf(rng, n) }, ptfCoarseHigh, true},
	} {
		for _, n := range []int{0, 1, 2, 3, 7, 100, 1001, 5000} {
			in := ptfInput(n, tc.gen(n))
			want := slices.Clone(in)
			slices.SortStableFunc(want, tc.cmp)
			for _, cores := range []int{1, 3} {
				got, detail := stableResort(in, tc.cmp, cores)
				if !samePTF(got, want) {
					t.Fatalf("%s, n=%d, cores=%d: not the stable sort (detail %v)", tc.name, n, cores, detail)
				}
				if n < 100 {
					continue
				}
				wantKernel := "radix"
				if tc.fallback {
					wantKernel = "comparison"
				}
				if detail["kernel"] != wantKernel || (detail["fallback"] == true) != tc.fallback {
					t.Errorf("%s, n=%d, cores=%d: span detail %v, want kernel %s and fallback %v", tc.name, n, cores, detail, wantKernel, tc.fallback)
				}
			}
		}
	}
}

// TestStableDispatchLeavesInputForFallback: the order a stable fallback
// needs must survive a refusal: the dispatch never writes data, so a
// refused sweep hands it back exactly as it came. Nothing more than the
// run's one scratch — the block plus a bucket spare, kept across sorts —
// is ever allocated, on the accepted path, on a refusal at the first
// bucket or the last, or by the single-core fallback.
func TestStableDispatchLeavesInputForFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 1001
	in := ptfInput(n, func(int) float64 { return float64(rng.Intn(300)) })
	data := slices.Clone(in)
	var scratch []codec.PTFRecord
	if _, v, _ := radix.Dispatch(data, &scratch, ptfCodec, ptfReverse, true, 0); v != radix.Refused {
		t.Fatalf("reversed comparator: verdict %d, want a refusal", v)
	}
	if !samePTF(data, in) {
		t.Fatal("a refused dispatch had written to data")
	}
	if len(scratch) < n || cap(scratch) > 2*n {
		t.Fatalf("scratch of %d records (cap %d) for %d", len(scratch), cap(scratch), n)
	}

	half := ptfInput(n, highOnlyInSecondHalf(rng, n))
	for _, tc := range []struct {
		name string
		in   []codec.PTFRecord
		cmp  func(a, b codec.PTFRecord) int
	}{
		{"accepted", in, codec.ComparePTF},
		{"refused", in, ptfReverse},
		{"refused on the second half", half, ptfCoarseHigh},
	} {
		r := &run[codec.PTFRecord]{cd: ptfCodec, cmp: tc.cmp, opt: Options{Stable: true}, scratch: scratch}
		data, detail := make([]codec.PTFRecord, n), map[string]any{}
		if allocs := testing.AllocsPerRun(10, func() {
			copy(data, tc.in)
			// The next sort reads into data again, as a streamed sort's chunks do.
			if block, _ := r.order(data, 0, detail); &block[0] != &data[0] {
				r.scratch = block
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocations with the scratch in hand, want none (detail %v)", tc.name, allocs, detail)
		}
		if &r.scratch[0] != &scratch[0] {
			t.Errorf("%s: the run's scratch was replaced", tc.name)
		}
		if got := r.takeSlab(n); &got[0] != &scratch[0] || r.scratch != nil {
			t.Errorf("%s: the scratch did not become the receive slab", tc.name)
		}
	}
}

// TestLocalOrderTwoSlabs: a stable localOrder merges the received runs —
// or, from τs up, re-sorts them — between the receive slab and the spent
// work slab. With work exactly as long as what arrived, the block it
// returns lies in one of the two, is the stable sort, and costs less than
// one n-record allocation.
func TestLocalOrderTwoSlabs(t *testing.T) {
	const n, k = 1 << 18, 9
	for _, tauS := range []int{k + 1, k} {
		rng := rand.New(rand.NewSource(34))
		slab := ptfInput(n, func(int) float64 { return float64(rng.Intn(500)) })
		chunks := make([][]codec.PTFRecord, k)
		for i := range chunks {
			chunks[i] = slab[i*n/k : (i+1)*n/k]
			slices.SortStableFunc(chunks[i], codec.ComparePTF)
		}
		want := slices.Clone(slab)
		slices.SortStableFunc(want, codec.ComparePTF)
		work := make([]codec.PTFRecord, n)
		r := &run[codec.PTFRecord]{
			cd: ptfCodec, cmp: codec.ComparePTF, opt: Options{Stable: true, TauS: tauS},
			tm: metrics.NewPhaseTimer(), tr: trace.Nop{}, work: work,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := r.localOrder(slab, chunks)
		runtime.ReadMemStats(&after)
		if grew, slice := after.TotalAlloc-before.TotalAlloc, uint64(n*ptfCodec.Size()); grew >= slice {
			t.Errorf("τs %d: localOrder allocated %d bytes; one %d-record slice is %d", tauS, grew, n, slice)
		}
		if err != nil || !samePTF(out, want) {
			t.Fatalf("τs %d: the block is not the stable sort of the runs (%v)", tauS, err)
		}
		if p := &out[0]; p != &slab[0] && p != &work[0] {
			t.Errorf("τs %d: the block lies in neither the receive slab nor the work slab", tauS)
		}
	}
}

// TestSendFromInput: a rank about to receive more records than its spent
// input slab holds sends from that slab instead, the block moved back into
// it, so the slab the kernel sorted into can go; one receiving no more
// keeps the roles, the input slab its receive slab.
func TestSendFromInput(t *testing.T) {
	const n = 1000
	block, input := ptfInput(n, func(i int) float64 { return float64(i) }), make([]codec.PTFRecord, n)
	for _, tc := range []struct {
		m    int64
		move bool
	}{{n, false}, {n + 1, true}} {
		r := &run[codec.PTFRecord]{work: block, scratch: input}
		r.sendFromInput(tc.m)
		if moved := &r.work[0] == &input[0]; moved != tc.move || !samePTF(r.work, block) {
			t.Errorf("m=%d: block moved into the input slab %v, want %v, content kept", tc.m, moved, tc.move)
		}
		if tc.move && &r.scratch[0] != &block[0] {
			t.Errorf("m=%d: the kernel's slab did not become the scratch", tc.m)
		}
	}
}

// FuzzStableDispatch: any records, any of the comparators, one invariant —
// the re-sort under Stable is slices.SortStableFunc. Scores come from a small
// universe (with both zeros, an infinity and both NaNs in it) so equal
// and key-distinct-but-comparator-equal neighbours are the common case.
func FuzzStableDispatch(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{5, 0, 5, 1, 1, 0, 9, 9, 9, 9, 9, 9, 200, 0, 130, 1}, uint8(1))
	f.Add([]byte{1, 0, 2, 0, 3, 0, 250, 3, 253, 3, 251, 3, 252, 3}, uint8(4))
	f.Add([]byte{255, 0, 254, 0, 253, 1, 252, 1, 3, 0}, uint8(3))
	cmps := []func(a, b codec.PTFRecord) int{codec.ComparePTF, ptfCoarse, ptfFine, ptfReverse, ptfCoarseHigh, ptfNaNFirst}
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.NaN(), negNaN}
	f.Fuzz(func(t *testing.T, raw []byte, which uint8) {
		cmp := cmps[int(which)%len(cmps)]
		nanOK := int(which)%len(cmps) == len(cmps)-1
		in := make([]codec.PTFRecord, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			v := int(binary.LittleEndian.Uint16(raw[i:])) % (2 * highScore)
			score := float64(v)
			if v%16 == 15 {
				// Only cmp.Compare orders NaNs; under the others they
				// would make the comparator no order at all.
				if score = specials[v/16%len(specials)]; score != score && !nanOK {
					score = -1
				}
			}
			in = append(in, codec.PTFRecord{Score: score, ObjID: uint64(len(in))})
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, cmp)
		if got, detail := stableResort(in, cmp, 1); !samePTF(got, want) {
			t.Fatalf("the re-sort is not the stable sort of %v under comparator %d (detail %v)", in, which, detail)
		}
	})
}

// sortPTF runs Sort, or the spilled sort when opt.Spill is set, over
// per-rank PTF inputs through cd and returns the per-rank blocks.
func sortPTF(t *testing.T, topo cluster.Topology, in [][]codec.PTFRecord, cd codec.Codec[codec.PTFRecord], opt Options) [][]codec.PTFRecord {
	t.Helper()
	if opt.Spill != nil {
		return sortRanks(t, topo, in, cd, codec.ComparePTF, opt)
	}
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]codec.PTFRecord, error) {
		return Sort(c, slices.Clone(in[c.Rank()]), cd, codec.ComparePTF, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStableSortRadixMatchesComparison: the stable dispatch is a pure
// acceleration. The stable PTF sort through the keyed codec — resident
// with the merge and with the τs re-sort, and streamed in chunks — must
// give every rank the very block it gets through the same codec with its
// capabilities hidden, which can only take the comparison sort; and the
// keyed side must in fact have taken the radix kernel.
func TestStableSortRadixMatchesComparison(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	rng := rand.New(rand.NewSource(33))
	in := make([][]codec.PTFRecord, topo.Size())
	for r := range in {
		for i := 0; i < 1501; i++ {
			score := float64(rng.Intn(60))
			if rng.Intn(4) != 0 {
				score = rng.NormFloat64() * 100
			}
			in[r] = append(in[r], codec.PTFRecord{Score: score, ObjID: uint64(r)<<32 | uint64(i)})
		}
	}
	want := slices.Concat(in...)
	slices.SortStableFunc(want, codec.ComparePTF)
	for _, tc := range []struct {
		name   string
		tauS   int
		stream bool
	}{
		{"merge", 1 << 20, false},
		{"resort", 1, false},
		{"stream", 1 << 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Stable, opt.TauM, opt.TauO, opt.TauS = true, 0, 0, tc.tauS
			keyed, plain := opt, opt
			if tc.stream {
				keyed.Spill = &SpillOptions{Dir: t.TempDir(), ChunkRecords: 257, BufBytes: 4 << 10}
				plain.Spill = &SpillOptions{Dir: t.TempDir(), ChunkRecords: 257, BufBytes: 4 << 10}
			}
			rec := trace.NewRing(ringCap)
			keyed.Trace = rec
			fast := sortPTF(t, topo, in, ptfCodec, keyed)
			slow := sortPTF(t, topo, in, plainCodec[codec.PTFRecord]{ptfCodec}, plain)
			for r := range fast {
				if !samePTF(fast[r], slow[r]) {
					t.Fatalf("rank %d: the keyed codec's block differs from the plain codec's", r)
				}
			}
			if !samePTF(slices.Concat(fast...), want) {
				t.Fatal("output is not the stable sort of the input")
			}
			kernels := spanDetails(trace.BuildSpans(recorded(t, rec, "")), "localsort", "kernel")
			if len(kernels) != topo.Size() {
				t.Fatalf("%d localsort spans, want %d", len(kernels), topo.Size())
			}
			for r, k := range kernels {
				if k != "radix" {
					t.Errorf("rank %d: stable localsort kernel %v, want radix", r, k)
				}
			}
		})
	}
}
