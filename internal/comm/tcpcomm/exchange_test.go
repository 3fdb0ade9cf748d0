package tcpcomm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sdssort/internal/comm"
)

// stagedWorld is a warm loopback world of p ranks for repeated staged
// exchanges: each rank sends perRank bytes split evenly over the ranks
// and receives into regions it keeps between exchanges.
type stagedWorld struct {
	trs     []*Transport
	comms   []*comm.Comm
	send    [][]byte   // rank's outgoing payload, dst-major
	regions [][][]byte // regions[rank][src]
	counts  []int64    // bytes between any two ranks
}

func newStagedWorld(tb testing.TB, p, perRank int) *stagedWorld {
	tb.Helper()
	rln, registry := openRegistry(tb)
	w := &stagedWorld{trs: make([]*Transport, p), comms: make([]*comm.Comm, p)}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w.trs[rank], errs[rank] = New(Config{Rank: rank, Size: p, Node: rank, Registry: registry, RegistryListener: rln, Timeout: 15 * time.Second})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			w.close()
			tb.Fatalf("rank %d: %v", r, err)
		}
		w.comms[r] = comm.New(w.trs[r])
	}
	per := int64(perRank / p)
	w.counts = make([]int64, p)
	for i := range w.counts {
		w.counts[i] = per
	}
	for r := 0; r < p; r++ {
		buf := make([]byte, per*int64(p))
		for i := range buf {
			buf[i] = byte(r*31 + i*7)
		}
		w.send = append(w.send, buf)
		regs := make([][]byte, p)
		for src := range regs {
			regs[src] = make([]byte, per)
		}
		w.regions = append(w.regions, regs)
	}
	return w
}

func (w *stagedWorld) close() {
	for _, tr := range w.trs {
		if tr != nil {
			tr.Close()
		}
	}
}

// exchange runs one StagedAlltoallv on every rank, posting the regions
// when posted is set; Drain copies a chunk into its region unless it
// already sits there.
func (w *stagedWorld) exchange(stage int64, posted bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.comms))
	for r, c := range w.comms {
		wg.Add(1)
		go func(me int, c *comm.Comm) {
			defer wg.Done()
			per := w.counts[0]
			o := comm.StagedOptions{
				StageBytes: stage,
				SendBytes:  w.counts,
				RecvBytes:  w.counts,
				Fill: func(dst int, off, n int64) ([]byte, error) {
					lo := int64(dst)*per + off
					return w.send[me][lo : lo+n], nil
				},
				Drain: func(src int, off int64, chunk []byte) error {
					if dst := w.regions[me][src][off:]; unsafe.SliceData(dst) != unsafe.SliceData(chunk) {
						copy(dst, chunk)
					}
					return nil
				},
			}
			if posted {
				o.RecvRegions = w.regions[me]
			}
			_, errs[me] = c.StagedAlltoallv(o)
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// check verifies every rank received exactly what its peers sent.
func (w *stagedWorld) check() error {
	per := w.counts[0]
	for me, regs := range w.regions {
		for src, got := range regs {
			if want := w.send[src][int64(me)*per : int64(me+1)*per]; !bytes.Equal(got, want) {
				return fmt.Errorf("rank %d: payload from %d differs", me, src)
			}
		}
	}
	return nil
}

// TestStagedExchangeAllocsPerPeer: a posted 4-rank staged exchange over
// tcpcomm allocates per peer, not per frame. Cutting the same payload
// into 16× more frames (64 KiB stages instead of 1 MiB) adds no
// allocations, so frame bodies, mailbox queues and the collective's
// bookkeeping all allocate nothing per frame.
func TestStagedExchangeAllocsPerPeer(t *testing.T) {
	const p, perRank = 4, 4 << 20
	w := newStagedWorld(t, p, perRank)
	defer w.close()
	allocs := map[int64]float64{}
	for _, stage := range []int64{1 << 20, 64 << 10} {
		var err error
		allocs[stage] = testing.AllocsPerRun(5, func() {
			if e := w.exchange(stage, true); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.check(); err != nil {
			t.Fatal(err)
		}
	}
	big, small := allocs[1<<20], allocs[64<<10]
	frames := float64(p * (p - 1) * (perRank / p / (64 << 10)))
	t.Logf("allocations per exchange: %.1f at 1 MiB stages, %.1f at 64 KiB (%.0f frames)", big, small, frames)
	if small > big+2 {
		t.Fatalf("%.1f allocations at 64 KiB stages vs %.1f at 1 MiB: the exchange allocates per frame", small, big)
	}
	var inPlace int64
	for _, tr := range w.trs {
		inPlace += tr.Stats().FramesInPlace.Load()
	}
	if inPlace == 0 {
		t.Fatal("no frame landed in place")
	}
}

// BenchmarkStagedAlltoallv is the transport layer's exchange: 4
// loopback ranks, 16 MiB each, with the receive regions posted (frames
// land in place) and without (each frame read into a buffer of its own,
// then copied into place). MB/s counts every rank's payload.
func BenchmarkStagedAlltoallv(b *testing.B) {
	const p, perRank = 4, 16 << 20
	for _, posted := range []bool{true, false} {
		b.Run(fmt.Sprintf("posted=%v", posted), func(b *testing.B) {
			w := newStagedWorld(b, p, perRank)
			defer w.close()
			b.SetBytes(p * perRank)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.exchange(1<<20, posted); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := w.check(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestStagedExchangePeerLossRevokes: a rank that dies in the middle of a
// posted exchange fails the collective on every rank — its own with its
// closed transport, the survivors' on their receive timeout — and every
// rank gets past the revokes that run on the way out, reads into its
// regions included.
func TestStagedExchangePeerLossRevokes(t *testing.T) {
	const p, per = 4, 1 << 20
	rln, registry := openRegistry(t)
	trs := make([]*Transport, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], _ = New(Config{Rank: rank, Size: p, Node: rank, Registry: registry, RegistryListener: rln,
				Timeout: 15 * time.Second, RecvTimeout: time.Second})
		}(r)
	}
	wg.Wait()
	for r, tr := range trs {
		if tr == nil {
			t.Fatalf("rank %d failed to boot", r)
		}
		defer tr.Close()
	}
	counts := []int64{per, per, per, per}
	send := make([]byte, per)
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		go func(me int) {
			c := comm.New(trs[me])
			regions := make([][]byte, p)
			for src := range regions {
				regions[src] = make([]byte, per)
			}
			_, err := c.StagedAlltoallv(comm.StagedOptions{
				StageBytes: 16 << 10, SendBytes: counts, RecvBytes: counts, RecvRegions: regions,
				Fill: func(dst int, off, n int64) ([]byte, error) { return send[off : off+n], nil },
				Drain: func(src int, off int64, chunk []byte) error {
					if me == p-1 && src != me && off >= 64<<10 {
						trs[me].Close() // dies mid-exchange
					}
					return nil
				},
			})
			errs <- err
		}(r)
	}
	deadline := time.After(30 * time.Second)
	for r := 0; r < p; r++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a rank completed an exchange its peer died in")
			}
		case <-deadline:
			t.Fatal("exchange did not return after a peer died: a revoke is stuck")
		}
	}
}
