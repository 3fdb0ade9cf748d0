package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rtmetrics "runtime/metrics"
	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/faultnet"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
	"sdssort/internal/trace"
)

// TestOverlapDeterministic: the overlapped exchange merges its sources
// in shift order, not arrival order. On duplicate-heavy input — equal
// keys from every source, a comparator that sees keys only, so a merge
// of two runs places ties by which run is which input — the output is
// therefore byte-identical run to run, over TCP as in process, and when
// injected delays and duplicated frames reorder the arrivals.
func TestOverlapDeterministic(t *testing.T) {
	for _, topo := range []cluster.Topology{{Nodes: 2, CoresPerNode: 2}, {Nodes: 3, CoresPerNode: 2}} {
		t.Run(fmt.Sprintf("%dx%d", topo.Nodes, topo.CoresPerNode), func(t *testing.T) {
			p := topo.Size()
			in := makeTagged(p, 400, func(rank, i int) float64 { return float64((rank + i) % 7) })
			rec := trace.NewRing(ringCap)
			opt := DefaultOptions()
			opt.TauM = 0
			opt.StageBytes = 8 * int64(taggedCodec.Size())
			opt.Trace = rec
			want := runSort(t, topo, in, opt)
			checkSorted(t, in, want, false)
			for _, s := range spansNamed(t, rec, "exchange") {
				if s.Detail["overlap"] != true {
					t.Fatalf("rank %d took the synchronous exchange", s.Rank)
				}
			}
			opt.Trace = nil
			same := func(label string, got [][]codec.Tagged) {
				t.Helper()
				for r := range want {
					if !slices.Equal(got[r], want[r]) {
						t.Fatalf("%s: rank %d output differs from the first run", label, r)
					}
				}
			}
			for i := 2; i <= 5; i++ {
				same(fmt.Sprintf("run %d", i), runSort(t, topo, in, opt))
			}
			same("tcpcomm", sortTaggedTCP(t, topo, in, opt))
			inj, err := faultnet.New(faultnet.Plan{Seed: 5, DelayRate: 0.3, MaxDelay: time.Millisecond, DupRate: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := cluster.Gather(topo, cluster.Options{WrapTransport: inj.Wrap}, func(c *comm.Comm) ([]codec.Tagged, error) {
				return Sort(c, slices.Clone(in[c.Rank()]), taggedCodec, compareTagged, opt)
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := inj.Stats(); st.Delays == 0 || st.Duplicates == 0 {
				t.Fatalf("the plan injected nothing: %+v", st)
			}
			same("faultnet", got)
		})
	}
}

// sortTaggedTCP is runSort with every rank on its own loopback TCP
// transport, node layout as topo's.
func sortTaggedTCP(t *testing.T, topo cluster.Topology, in [][]codec.Tagged, opt Options) [][]codec.Tagged {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0") // rank 0 serves the registry on it
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	registry := ln.Addr().String()
	p := topo.Size()
	outs, errs := make([][]codec.Tagged, p), make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := tcpcomm.New(tcpcomm.Config{
				Rank: r, Size: p, Node: r / topo.CoresPerNode,
				Registry: registry, RegistryListener: ln, Timeout: 30 * time.Second,
			})
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			c := comm.New(tr)
			if outs[r], errs[r] = Sort(c, slices.Clone(in[r]), taggedCodec, compareTagged, opt); errs[r] == nil {
				errs[r] = c.Barrier() // no transport closes under a peer still receiving
			}
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return outs
}

// joinProbe delays every exchange Send by 20ms and fails rank 0's
// exchange receives from rank 1 at once. Once returned is set — the
// rank's Sort has come back — every Send still reaching it is late.
type joinProbe struct {
	comm.Transport
	returned atomic.Bool
	late     *atomic.Int64
}

func (tr *joinProbe) Send(dst int, ctx uint64, tag int32, data []byte) error {
	if tag == tagStaged {
		time.Sleep(20 * time.Millisecond)
	}
	if tr.returned.Load() {
		tr.late.Add(1)
	}
	return tr.Transport.Send(dst, ctx, tag, data)
}

func (tr *joinProbe) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	if tr.Rank() == 0 && src == 1 && tag == tagStaged {
		return nil, errors.New("injected receive failure")
	}
	return tr.Transport.Recv(src, ctx, tag)
}

// TestOverlapJoinsSender: an overlapped exchange that fails on the
// receive side still waits for its sender goroutine. When Sort returns,
// nothing may still be sending views of the caller's data, and the
// rank's staging window must read zero, as WindowBytes documents.
func TestOverlapJoinsSender(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	in := makeTagged(p, 400, uniformGen(93))
	probes, window := make([]*joinProbe, p), make([]int64, p)
	var late atomic.Int64
	wrap := func(tr comm.Transport) comm.Transport {
		probes[tr.Rank()] = &joinProbe{Transport: tr, late: &late}
		return probes[tr.Rank()]
	}
	err := cluster.RunOpts(topo, cluster.Options{WrapTransport: wrap}, func(c *comm.Comm) error {
		opt := DefaultOptions()
		opt.TauM = 0
		opt.Exchange = &metrics.ExchangeStats{}
		_, err := Sort(c, slices.Clone(in[c.Rank()]), taggedCodec, compareTagged, opt)
		probes[c.Rank()].returned.Store(true)
		window[c.Rank()] = opt.Exchange.WindowBytes.Load()
		return err
	})
	if err == nil {
		t.Fatal("sort succeeded despite the injected receive failure")
	}
	time.Sleep(50 * time.Millisecond) // long enough for a leaked sender to wake
	if n := late.Load(); n != 0 {
		t.Errorf("%d sends after Sort returned", n)
	}
	for r, w := range window {
		if w != 0 {
			t.Errorf("rank %d: WindowBytes = %d after Sort returned, want 0", r, w)
		}
	}
}

// TestOverlapLandingCases: the overlapped exchange lands every arrival,
// and every merge, in one m-record slab — the spent input when it holds
// m; else the radix scratch, once the block has moved into the spent
// input; else a fresh one — and each rank's block is byte for byte the
// one merging into a fresh slab gives: the own partition, then sources
// me-1, me-2, … by psort.MergeInto. The send counts force each case,
// ranks that receive nothing or only their own partition, and empty
// runs between full ones, through a zero-copy codec and plainCodec.
func TestOverlapLandingCases(t *testing.T) {
	const p, n, spare = 4, 60, 16
	type landingCase struct {
		name   string
		counts func(src, dst int) int // records src sends to dst
	}
	either := func(c bool, x, y int) int {
		if c {
			return x
		}
		return y
	}
	cases := []landingCase{
		{"spent-input", func(src, dst int) int { return n / p }},
		{"radix-scratch", func(src, dst int) int { return either(dst == 0, 18, 14) }},
		{"fresh-one-rank", func(src, dst int) int { return either(dst == 0, n, 0) }},
		{"own-only", func(src, dst int) int { return either(dst == src, n, 0) }},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
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
				slices.SortFunc(blocks[src], compareTagged)
				bounds[src] = []int{0}
				for dst := range p {
					bounds[src] = append(bounds[src], bounds[src][dst]+tc.counts(src, dst))
				}
			}
			want := make([][]codec.Tagged, p)
			for me := range want {
				acc := slices.Clone(blocks[me][bounds[me][me]:bounds[me][me+1]])
				for k := 1; k < p; k++ {
					from := (me - k + p) % p
					run := blocks[from][bounds[from][me]:bounds[from][me+1]]
					if len(run) > 0 {
						dst := make([]codec.Tagged, len(acc)+len(run))
						psort.MergeInto(dst, acc, run, compareTagged)
						acc = dst
					}
				}
				want[me] = acc
			}
			var where [p]string
			err := cluster.Run(cluster.Topology{Nodes: 2, CoresPerNode: 2}, func(c *comm.Comm) error {
				me := c.Rank()
				opt := DefaultOptions()
				opt.StageBytes = 5 * int64(cd.Size())
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
					return fmt.Errorf("%s zero-copy=%v: rank %d's block differs from the fresh-slab merge", tc.name, zc, me)
				}
				if len(out) == 0 {
					where[me] = "nothing"
					return nil
				}
				switch m, at := len(out), &out[0]; {
				case at == &input[0] && m <= n:
					where[me] = "spent-input"
				case at == &block[0] && m > n && m <= n+spare:
					where[me] = "radix-scratch"
				case at != &input[0] && at != &block[0] && m > n+spare:
					where[me] = "fresh"
				default:
					return fmt.Errorf("%s: rank %d landed %d records in the wrong slab", tc.name, me, m)
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
	for _, c := range []string{"spent-input", "radix-scratch", "fresh", "nothing"} {
		if landed[c] == 0 {
			t.Errorf("no rank landed in the %s", c)
		}
	}
}

// postGate forwards the in-process transport's posted receives and holds
// each Send on tag until its destination has posted the region for it,
// so every chunk lands in place and no arrival takes a buffer of its
// own — what a transport allocates then depends on no schedule.
type postGate struct {
	comm.Transport
	tag    int32
	posted [][]chan struct{} // posted[dst][src] closes when dst posts src's region
}

func (g *postGate) Post(src int, ctx uint64, tag int32, region []byte) {
	g.Transport.(comm.Poster).Post(src, ctx, tag, region)
	if tag == g.tag {
		close(g.posted[g.Rank()][src])
	}
}

func (g *postGate) Revoke(src int, ctx uint64, tag int32) {
	g.Transport.(comm.Poster).Revoke(src, ctx, tag)
}

func (g *postGate) Send(dst int, ctx uint64, tag int32, data []byte) error {
	if tag == g.tag {
		<-g.posted[dst][g.Rank()]
	}
	return g.Transport.Send(dst, ctx, tag, data)
}

// sortAllocs runs one 2 × 2 Sort of in under opt, every Send on tag held
// by a postGate, and returns what the runtime's heap allocation counter
// grew by across the Sort calls, read by rank 0 between two barriers
// before them — no rank has started its Sort, every rank has made its
// input — and after one after them, with the sort's trace. A world that
// posted no region on tag gated nothing, and fails.
func sortAllocs(t *testing.T, in [][]float64, tag int32, opt Options) (int64, *trace.Ring) {
	t.Helper()
	p := len(in)
	posted := make([][]chan struct{}, p)
	for dst := range posted {
		posted[dst] = make([]chan struct{}, p)
		for src := range posted[dst] {
			posted[dst][src] = make(chan struct{})
		}
	}
	wrap := func(tr comm.Transport) comm.Transport { return &postGate{Transport: tr, tag: tag, posted: posted} }
	rec := trace.NewRing(ringCap)
	opt.Trace = rec
	sample := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var before, after uint64
	err := cluster.RunOpts(cluster.Topology{Nodes: 2, CoresPerNode: 2}, cluster.Options{WrapTransport: wrap}, func(c *comm.Comm) error {
		data := slices.Clone(in[c.Rank()])
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			rtmetrics.Read(sample)
			before = sample[0].Value.Uint64()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		out, err := Sort(c, data, codec.Float64{}, cmpF, opt)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			rtmetrics.Read(sample)
			after = sample[0].Value.Uint64()
		}
		if !slices.IsSorted(out) {
			return fmt.Errorf("rank %d: block not sorted", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dst := range posted {
		for src := range posted[dst] {
			select {
			case <-posted[dst][src]:
				return int64(after - before), rec
			default:
			}
		}
	}
	t.Fatalf("no rank posted a region on tag %d", tag)
	return 0, nil
}

// TestOverlapSlabCount counts what one non-stable 2 × 2 sort on the
// overlapped path allocates, by the runtime's heap allocation counter
// around the Sort calls: per rank the radix kernel's scratch (n records
// plus a bucket spare) and at most one spare of the largest incoming
// run, plus a constant: a radix split's tables per rank (its sync.Pool
// may be cold, and drops items under the race detector), pivots,
// counts, plans and the trace. The
// arrivals and the merges land in the spent input, so no m-record slab
// of its own appears on top.
func TestOverlapSlabCount(t *testing.T) {
	const p, n, recSize = 4, 1 << 18, 8
	const radixSpare = 512 << 10 / recSize // the kernel's bucket spare: one 512 KiB bucket
	const slack = p*768<<10 + 256<<10      // a split's tables per rank; pivots, counts, plans, the trace
	in := make([][]float64, p)
	for r := range in {
		rng := rand.New(rand.NewSource(int64(r) + 41))
		in[r] = make([]float64, n)
		for i := range in[r] {
			in[r][i] = rng.Float64()
		}
	}
	opt := DefaultOptions()
	opt.TauM = 0
	got, rec := sortAllocs(t, in, tagStaged, opt)
	spans := spansNamed(t, rec, "exchange")
	if len(spans) != p {
		t.Fatalf("%d exchange spans, want %d", len(spans), p)
	}
	var largest [p]int64
	for _, s := range spans {
		if s.Detail["overlap"] != true {
			t.Fatalf("rank %d took the synchronous exchange", s.Rank)
		}
		for dst, c := range s.Detail["sent"].([]int64) {
			if dst != s.Rank {
				largest[dst] = max(largest[dst], c)
			}
		}
	}
	bound := int64(slack)
	for _, l := range largest {
		bound += (n + radixSpare + l) * recSize
	}
	t.Logf("allocated %d bytes; bound %d (slack %d)", got, bound, slack)
	if got > bound {
		t.Errorf("the sort allocated %d bytes, above Σ(n + radix spare + largest incoming run) + %d = %d", got, slack, bound)
	}
}
