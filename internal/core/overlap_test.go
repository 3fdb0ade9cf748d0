package core

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/faultnet"
	"sdssort/internal/metrics"
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
	if tag == tagExchange {
		time.Sleep(20 * time.Millisecond)
	}
	if tr.returned.Load() {
		tr.late.Add(1)
	}
	return tr.Transport.Send(dst, ctx, tag, data)
}

func (tr *joinProbe) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	if tr.Rank() == 0 && src == 1 && tag == tagExchange {
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
