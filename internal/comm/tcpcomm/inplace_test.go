package tcpcomm

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/core"
	"sdssort/internal/faultnet"
	"sdssort/internal/workload"
)

// launchWrapped is launch with each rank's transport decorated by wrap
// (nil: none). It returns the ranks' transports, closed, so the caller
// can read their counters.
func launchWrapped(t *testing.T, size int, wrap func(comm.Transport) comm.Transport, fn func(c *comm.Comm) error) []*Transport {
	t.Helper()
	rln, registry := openRegistry(t)
	var wg sync.WaitGroup
	errs := make([]error, size)
	trs := make([]*Transport, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := New(Config{Rank: rank, Size: size, Node: rank, Registry: registry, RegistryListener: rln, Timeout: 15 * time.Second})
			if err != nil {
				errs[rank] = fmt.Errorf("bootstrap: %w", err)
				return
			}
			trs[rank] = tr
			var ct comm.Transport = tr
			if wrap != nil {
				ct = wrap(tr)
			}
			errs[rank] = fn(comm.New(ct))
		}(r)
	}
	wg.Wait()
	for _, tr := range trs {
		if tr != nil {
			tr.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return trs
}

// ptfSort runs the stable PTF sort — ptf_stable_tcp's records, at a
// smaller size and stage — over a 4-rank loopback world and returns the
// concatenated output, the transports, and how many exchange frames
// crossed the wire. That count comes from the output: the low half of a
// record's ObjID is its index in the generated input, so it names the
// rank that sent it, and each (source, destination) payload moves in
// ceil(bytes / stage) frames.
func ptfSort(t *testing.T, wrap func(comm.Transport) comm.Transport) (out []codec.PTFRecord, trs []*Transport, exchangeFrames int64) {
	t.Helper()
	const p, perRank, stage = 4, 1 << 17, 16 << 10
	input := workload.PTF(7, p*perRank)
	outs := make([][]codec.PTFRecord, p)
	trs = launchWrapped(t, p, wrap, func(c *comm.Comm) error {
		opt := core.DefaultOptions()
		opt.Stable = true
		opt.StageBytes = stage
		local := slices.Clone(input[c.Rank()*perRank : (c.Rank()+1)*perRank])
		o, err := core.Sort(c, local, codec.PTFCodec{}, codec.ComparePTF, opt)
		outs[c.Rank()] = o
		return err
	})
	for dst, o := range outs {
		from := make([]int64, p)
		for _, rec := range o {
			from[int(uint32(rec.ObjID))/perRank]++
		}
		for src, n := range from {
			if src != dst {
				exchangeFrames += (n*16 + stage - 1) / stage
			}
		}
		out = append(out, o...)
	}
	return out, trs, exchangeFrames
}

func ptfBytes(recs []codec.PTFRecord) []byte {
	b, _ := codec.View(codec.PTFCodec{}, recs)
	return b
}

// TestExchangeLandsInPlace: over bare tcpcomm, the exchange frames of
// a stable sort are read straight into the receive slab — all but the
// few a peer sends before this rank has posted — and the output is the
// stable sort of the input, byte for byte. Wrapped in faultnet, whose
// frames carry a sequence header, nothing lands in place and the
// output is the same bytes.
func TestExchangeLandsInPlace(t *testing.T) {
	want := workload.PTF(7, 4<<17)
	slices.SortStableFunc(want, codec.ComparePTF)

	out, trs, frames := ptfSort(t, nil)
	if !bytes.Equal(ptfBytes(out), ptfBytes(want)) {
		t.Fatal("tcpcomm sort output differs from the stable sort of the input")
	}
	var inPlace int64
	for _, tr := range trs {
		inPlace += tr.Stats().FramesInPlace.Load()
	}
	t.Logf("%d of %d exchange frames landed in place", inPlace, frames)
	if inPlace > frames || float64(inPlace) < 0.95*float64(frames) {
		t.Fatalf("%d of %d exchange frames landed in place, want at least 95%%", inPlace, frames)
	}

	inj, err := faultnet.New(faultnet.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	out, trs, _ = ptfSort(t, inj.Wrap)
	if !bytes.Equal(ptfBytes(out), ptfBytes(want)) {
		t.Fatal("faultnet-wrapped sort output differs from the stable sort of the input")
	}
	for r, tr := range trs {
		if n := tr.Stats().FramesInPlace.Load(); n != 0 {
			t.Fatalf("rank %d landed %d frames in place under faultnet", r, n)
		}
	}
}
