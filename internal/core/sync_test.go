package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/memlimit"
	"sdssort/internal/psort"
)

// tagStaged is comm's tag for the staged all-to-all's payload: every
// exchange's Sends and posted regions.
const tagStaged = -3072

// TestSyncLandingCases: the synchronous exchange's merge (localOrder
// below τs) runs between the receive slab and the spent input when that
// holds every record m arrived, and otherwise inside the receive slab —
// the radix scratch once the block has moved into the spent input, else
// a fresh one — through the spent input as the buffer of each pair's
// smaller run, or through a booked buffer of the tree's need when the
// spent input is shorter. Each rank's block is byte for byte
// psort.KWayMerge of its runs in source-rank order. The send counts
// force each case and ranks that receive nothing; keys repeat across
// every source, through a zero-copy codec and plainCodec.
func TestSyncLandingCases(t *testing.T) {
	const p, n, spare = 4, 60, 16
	either := func(c bool, x, y int) int {
		if c {
			return x
		}
		return y
	}
	type landingCase struct {
		name   string
		counts func(src, dst int) int // records src sends to dst
	}
	cases := []landingCase{
		{"two-slabs", func(src, dst int) int { return n / p }},
		{"radix-scratch", func(src, dst int) int { return either(dst == 0, 18, 14) }},
		{"fresh", func(src, dst int) int { return either(dst == 0, 21, 13) }},
		{"fallback", func(src, dst int) int { return either(dst == 0, n, 0) }},
		{"own-only", func(src, dst int) int { return either(dst == src, n, 0) }},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		var m [p][p]int
		for src := range m {
			cuts := []int{0, n}
			for range p - 1 {
				cuts = append(cuts, rng.Intn(n+1))
			}
			slices.Sort(cuts)
			for dst := range m[src] {
				m[src][dst] = cuts[dst+1] - cuts[dst]
			}
		}
		cases = append(cases, landingCase{fmt.Sprintf("random-%d", seed), func(src, dst int) int { return m[src][dst] }})
	}
	landed := map[string]int{}
	for _, zc := range []bool{true, false} {
		cd := taggedCodecFor(zc)
		for _, tc := range cases {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			blocks, bounds := make([][]codec.Tagged, p), make([][]int, p)
			for src := range blocks {
				blocks[src] = make([]codec.Tagged, n)
				for i := range blocks[src] {
					blocks[src][i] = codec.Tagged{Key: float64(rng.Intn(5)), Rank: int32(src), Index: int32(i)}
				}
				slices.SortStableFunc(blocks[src], compareTagged)
				bounds[src] = []int{0}
				for dst := range p {
					bounds[src] = append(bounds[src], bounds[src][dst]+tc.counts(src, dst))
				}
			}
			want, need := make([][]codec.Tagged, p), make([]int, p)
			for me := range want {
				runs, lens := make([][]codec.Tagged, p), make([]int, p)
				for src := range runs {
					runs[src] = blocks[src][bounds[src][me]:bounds[src][me+1]]
					lens[src] = len(runs[src])
				}
				want[me], need[me] = psort.KWayMerge(runs, compareTagged), psort.MergeRunsNeed(lens)
			}
			var where [p]string
			err := cluster.Run(cluster.Topology{Nodes: 2, CoresPerNode: 2}, func(c *comm.Comm) error {
				me := c.Rank()
				opt := DefaultOptions()
				opt.Stable = true
				opt.StageBytes = 5 * int64(cd.Size())
				opt.Mem = memlimit.New(1 << 30)
				r, err := newRun(c, cd, compareTagged, opt)
				if err != nil {
					return err
				}
				defer r.close()
				// The block in the kernel's slab, with room for a bucket
				// spare, and the spent input beside it.
				block := append(make([]codec.Tagged, 0, n+spare), blocks[me]...)
				input := make([]codec.Tagged, n)
				r.work, r.scratch, r.bounds = block, input, bounds[me]
				if _, err := r.exchangeAndOrder(); err != nil {
					return err
				}
				out := r.work
				if !slices.Equal(out, want[me]) {
					return fmt.Errorf("%s zero-copy=%v: rank %d's block differs from the k-way merge in rank order", tc.name, zc, me)
				}
				m := len(out)
				// Beside the receive buffer the ledger books the staging
				// window, then the merge buffer while it lives.
				extra, window := opt.Mem.Peak()-int64(m)*r.recSize, 2*opt.StageBytes
				if fallback := m > n && need[me] > n; fallback && extra < int64(need[me])*r.recSize || !fallback && extra > window {
					return fmt.Errorf("%s: rank %d's ledger peaked %d bytes past its %d received, merge need %d", tc.name, me, extra, m, need[me])
				}
				if m == 0 {
					where[me] = "nothing"
					return nil
				}
				switch at := &out[0]; {
				case (at == &input[0] || at == &block[0]) && m <= n:
					where[me] = "two-slabs"
				case at == &block[0] && m > n && m <= n+spare:
					where[me] = "radix-scratch"
				case at != &input[0] && at != &block[0] && m > n+spare && need[me] <= n:
					where[me] = "fresh"
				case at != &input[0] && at != &block[0] && m > n+spare:
					where[me] = "fallback"
				default:
					return fmt.Errorf("%s: rank %d ordered %d records in the wrong slab", tc.name, me, m)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range where {
				landed[w]++
			}
		}
	}
	for _, c := range []string{"two-slabs", "radix-scratch", "fresh", "fallback", "nothing"} {
		if landed[c] == 0 {
			t.Errorf("no rank ordered its block in the %s case", c)
		}
	}
}

// TestSyncSlabCount counts what one stable 2 × 2 sort on the synchronous
// path allocates, by the runtime's heap allocation counter around the
// Sort calls. Two ranks hold a small input, two a large one, so the
// small ones receive more records than they sent — m ≤ 2n, past their
// radix scratch. Per rank the world may allocate the radix kernel's
// scratch (n records plus a bucket spare) and a fresh receive slab when
// m exceeds that scratch, plus a constant: a radix split's tables per
// rank, pivots, counts, plans and the trace. The merge runs inside the
// receive slab through the spent input, so no m-record spare appears on
// top.
func TestSyncSlabCount(t *testing.T) {
	const p, recSize = 4, 8
	const radixSpare = 512 << 10 / recSize // the kernel's bucket spare: one 512 KiB bucket
	const slack = p*768<<10 + 1<<20        // a split's tables per rank; pivots, counts, plans, the trace
	sizes := [p]int{1 << 18, 5 << 17, 1 << 18, 5 << 17}
	in := make([][]float64, p)
	for r := range in {
		rng := rand.New(rand.NewSource(int64(r) + 53))
		in[r] = make([]float64, sizes[r])
		for i := range in[r] {
			in[r][i] = rng.Float64()
		}
	}
	opt := DefaultOptions()
	opt.TauM = 0
	opt.Stable = true
	got, rec := sortAllocs(t, in, tagStaged, opt)
	spans := spansNamed(t, rec, "exchange")
	if len(spans) != p {
		t.Fatalf("%d exchange spans, want %d", len(spans), p)
	}
	var recv [p]int64
	for _, s := range spans {
		if s.Detail["overlap"] != false {
			t.Fatalf("rank %d took the overlapped exchange", s.Rank)
		}
		for dst, c := range s.Detail["sent"].([]int64) {
			recv[dst] += c
		}
	}
	bound, grew := int64(slack), 0
	for r, m := range recv {
		n := int64(sizes[r])
		if m > 2*n {
			t.Fatalf("rank %d received %d records, more than twice its %d", r, m, n)
		}
		if m > n {
			grew++
		}
		scratch := n + min(n, radixSpare)
		bound += scratch * recSize
		if m > scratch {
			bound += m * recSize
		}
	}
	if grew == 0 {
		t.Fatalf("no rank received more than it sent: %v", recv)
	}
	t.Logf("allocated %d bytes; bound %d (slack %d); received %v", got, bound, slack, recv)
	if got > bound {
		t.Errorf("the sort allocated %d bytes, above Σ(radix scratch + receive slab past it) + %d = %d", got, slack, bound)
	}
}
