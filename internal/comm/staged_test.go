package comm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stagedPayloads builds a deterministic payload matrix: what src sends
// to dst, with deliberately skewed and zero-length entries to exercise
// chunk boundaries.
func stagedPayloads(p int, seed int64) [][][]byte {
	rng := rand.New(rand.NewSource(seed))
	m := make([][][]byte, p)
	for src := 0; src < p; src++ {
		m[src] = make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			n := rng.Intn(200)
			if (src+dst)%3 == 0 {
				n = 0 // zero-length pairs must not wedge the schedule
			}
			if src == dst {
				n = rng.Intn(100)
			}
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(rng.Intn(256))
			}
			m[src][dst] = buf
		}
	}
	return m
}

// runStaged executes one StagedAlltoallv over the payload matrix and
// checks every rank reassembles exactly what the plain Alltoall would
// deliver.
func runStaged(t *testing.T, p int, stage int64, overlap bool) {
	t.Helper()
	payloads := stagedPayloads(p, 7*int64(p)+stage)
	runRanks(t, p, nil, func(c *Comm) error {
		me := c.Rank()
		sendBytes := make([]int64, p)
		recvBytes := make([]int64, p)
		for r := 0; r < p; r++ {
			sendBytes[r] = int64(len(payloads[me][r]))
			recvBytes[r] = int64(len(payloads[r][me]))
		}
		got := make([][]byte, p)
		st, err := c.StagedAlltoallv(StagedOptions{
			StageBytes: stage,
			SendBytes:  sendBytes,
			RecvBytes:  recvBytes,
			Overlap:    overlap,
			Fill: func(dst int, off, n int64) ([]byte, error) {
				return payloads[me][dst][off : off+n], nil
			},
			Drain: func(src int, off int64, chunk []byte) error {
				if int64(len(got[src])) != off {
					return fmt.Errorf("rank %d: chunk from %d at offset %d, have %d bytes", me, src, off, len(got[src]))
				}
				got[src] = append(got[src], chunk...)
				return nil
			},
		})
		if err != nil {
			return err
		}
		var want int64
		for r := 0; r < p; r++ {
			want += sendBytes[r]
		}
		if st.BytesStaged != want {
			return fmt.Errorf("rank %d: staged %d bytes, sent %d", me, st.BytesStaged, want)
		}
		for src := 0; src < p; src++ {
			if !bytes.Equal(got[src], payloads[src][me]) {
				return fmt.Errorf("rank %d: payload from %d differs (%d vs %d bytes)", me, src, len(got[src]), len(payloads[src][me]))
			}
		}
		return nil
	})
}

func TestStagedAlltoallvMatchesAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5, 8} {
		for _, stage := range []int64{0, 1, 7, 64, 1 << 20} {
			t.Run(fmt.Sprintf("p%d_stage%d", p, stage), func(t *testing.T) {
				runStaged(t, p, stage, false)
				runStaged(t, p, stage, true)
			})
		}
	}
}

// TestStagedAlltoallvPooledBuffers drives the exchange the way the sort
// does — Fill encodes into a pooled buffer, FillDone recycles it — and
// checks FillDone fires once per chunk with the buffer Fill produced.
func TestStagedAlltoallvPooledBuffers(t *testing.T) {
	const p, stage = 4, 16
	payloads := stagedPayloads(p, 99)
	var mu sync.Mutex
	fillCalls, doneCalls := 0, 0
	runRanks(t, p, nil, func(c *Comm) error {
		me := c.Rank()
		sendBytes := make([]int64, p)
		recvBytes := make([]int64, p)
		for r := 0; r < p; r++ {
			sendBytes[r] = int64(len(payloads[me][r]))
			recvBytes[r] = int64(len(payloads[r][me]))
		}
		got := make([][]byte, p)
		scratch := make([]byte, 0, stage)
		_, err := c.StagedAlltoallv(StagedOptions{
			StageBytes: stage,
			SendBytes:  sendBytes,
			RecvBytes:  recvBytes,
			Fill: func(dst int, off, n int64) ([]byte, error) {
				mu.Lock()
				fillCalls++
				mu.Unlock()
				scratch = append(scratch[:0], payloads[me][dst][off:off+n]...)
				return scratch, nil
			},
			FillDone: func(dst int, buf []byte) {
				mu.Lock()
				doneCalls++
				mu.Unlock()
			},
			Drain: func(src int, off int64, chunk []byte) error {
				got[src] = append(got[src], chunk...)
				return nil
			},
		})
		if err != nil {
			return err
		}
		for src := 0; src < p; src++ {
			if !bytes.Equal(got[src], payloads[src][me]) {
				return fmt.Errorf("rank %d: payload from %d differs", me, src)
			}
		}
		return nil
	})
	if fillCalls == 0 || fillCalls != doneCalls {
		t.Fatalf("fill/done mismatch: %d fills, %d dones", fillCalls, doneCalls)
	}
}

func TestStagedAlltoallvValidation(t *testing.T) {
	runRanks(t, 1, nil, func(c *Comm) error {
		if _, err := c.StagedAlltoallv(StagedOptions{}); err == nil {
			return fmt.Errorf("missing counts and callbacks accepted")
		}
		if _, err := c.StagedAlltoallv(StagedOptions{
			SendBytes: []int64{4},
			RecvBytes: []int64{8}, // self send != self recv
			Fill:      func(int, int64, int64) ([]byte, error) { return nil, nil },
			Drain:     func(int, int64, []byte) error { return nil },
		}); err == nil {
			return fmt.Errorf("mismatched self counts accepted")
		}
		if _, err := c.StagedAlltoallv(StagedOptions{
			SendBytes: []int64{-1},
			RecvBytes: []int64{-1},
			Fill:      func(int, int64, int64) ([]byte, error) { return nil, nil },
			Drain:     func(int, int64, []byte) error { return nil },
		}); err == nil {
			return fmt.Errorf("negative counts accepted")
		}
		return nil
	})
}

// peerCounts is a count matrix row: per bytes to every rank but skip.
func peerCounts(p, skip int, per int64) []int64 {
	counts := make([]int64, p)
	for r := range counts {
		if r != skip {
			counts[r] = per
		}
	}
	return counts
}

// TestStagedShiftOrder: in either mode Drain sees the sources in shift
// order — itself, then me-1, me-2, … — each one's chunks at rising
// offsets before the next source's. The overlapped merge's order, and
// so its ties and its bytes, rest on this order.
func TestStagedShiftOrder(t *testing.T) {
	const stage, per = 3, 8 // three chunks from every source
	type drained struct {
		src int
		off int64
	}
	for _, p := range []int{3, 4, 5, 8} {
		for _, overlap := range []bool{false, true} {
			t.Run(fmt.Sprintf("p%d_overlap%v", p, overlap), func(t *testing.T) {
				counts := peerCounts(p, -1, per)
				payload := make([]byte, per)
				runRanks(t, p, nil, func(c *Comm) error {
					me := c.Rank()
					var got, want []drained
					for k := range p {
						for off := int64(0); off < per; off += stage {
							want = append(want, drained{(me - k + p) % p, off})
						}
					}
					_, err := c.StagedAlltoallv(StagedOptions{
						StageBytes: stage, SendBytes: counts, RecvBytes: counts, Overlap: overlap,
						Fill: func(_ int, off, n int64) ([]byte, error) { return payload[off : off+n], nil },
						Drain: func(src int, off int64, _ []byte) error {
							got = append(got, drained{src, off})
							return nil
						},
					})
					if err != nil {
						return err
					}
					if !slices.Equal(got, want) {
						return fmt.Errorf("rank %d drained (source, offset) %v, want %v", me, got, want)
					}
					return nil
				})
			})
		}
	}
}

// TestStagedOverlapSendsNotHeldBack: with Overlap, a rank's sends never
// wait on its receives. Every Drain blocks on its first chunk until
// every rank's FillDone has reported its last chunk sent, which only a
// send stream of its own can satisfy — interleaved, each rank would
// wait in Drain for sends stuck behind it, so that mode is not run.
func TestStagedOverlapSendsNotHeldBack(t *testing.T) {
	const p, stage, per = 4, 8, 64
	payload := make([]byte, per)
	var sent atomic.Int64
	allSent := make(chan struct{})
	runRanks(t, p, nil, func(c *Comm) error {
		me := c.Rank()
		send := peerCounts(p, me, per)
		waited := false
		_, err := c.StagedAlltoallv(StagedOptions{
			StageBytes: stage, SendBytes: send, RecvBytes: send, Overlap: true,
			Fill: func(_ int, off, n int64) ([]byte, error) { return payload[off : off+n], nil },
			FillDone: func(int, []byte) {
				if sent.Add(1) == p*(p-1)*per/stage {
					close(allSent)
				}
			},
			Drain: func(src int, _ int64, _ []byte) error {
				if waited {
					return nil
				}
				waited = true
				select {
				case <-allSent:
					return nil
				case <-time.After(10 * time.Second):
					return fmt.Errorf("rank %d: the first chunk from %d waited 10s for the sends", me, src)
				}
			},
		})
		return err
	})
}

// TestStagedOverlapFailureCleanup: when a Drain fails, the overlapped
// collective returns only once its sender has stopped — no Fill or
// FillDone after the return — with OnWindow back at zero on every rank.
// Rank 0's Fill is slow and its first Drain fails, so its sender is
// mid-stream when the receive side gives up.
func TestStagedOverlapFailureCleanup(t *testing.T) {
	const p, stage, per = 4, 8, 64
	world, err := NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	payload := make([]byte, per)
	var returned atomic.Bool
	var late atomic.Int64
	window := make([]atomic.Int64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := New(world.Transport(r))
			send := peerCounts(p, r, per)
			_, errs[r] = c.StagedAlltoallv(StagedOptions{
				StageBytes: stage, SendBytes: send, RecvBytes: send, Overlap: true,
				Fill: func(_ int, off, n int64) ([]byte, error) {
					if r == 0 {
						if returned.Load() {
							late.Add(1)
						}
						time.Sleep(2 * time.Millisecond)
					}
					return payload[off : off+n], nil
				},
				FillDone: func(int, []byte) {
					if r == 0 && returned.Load() {
						late.Add(1)
					}
				},
				Drain: func(src int, _ int64, _ []byte) error {
					if r == 0 {
						return errors.New("injected drain failure")
					}
					return nil
				},
				OnWindow: func(d int64) { window[r].Add(d) },
			})
			if r == 0 {
				returned.Store(true)
			}
		}()
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond) // long enough for a leaked sender to call Fill again
	if errs[0] == nil {
		t.Fatal("rank 0 succeeded despite its failing Drain")
	}
	if err := errors.Join(errs[1:]...); err != nil {
		t.Fatalf("a peer failed: %v", err)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d Fill or FillDone calls after the collective returned", n)
	}
	for r := range window {
		if w := window[r].Load(); w != 0 {
			t.Errorf("rank %d: OnWindow sums to %d, want 0", r, w)
		}
	}
}

// FuzzStagedAlltoallv: the bytes decode to p ∈ [1, 17] and a count
// matrix with zeros and ranks that send nothing; the stage size may be
// ≤ 0 (one chunk per peer) or 1, the mode interleaved or overlapped, the
// receive regions posted or not. On every rank Drain must see each
// source's bytes once, in order, the sources in shift order — itself,
// then me-1, me-2, …; the bytes must be what Alltoall delivers, and the
// staging window must read zero once the collective returns.
func FuzzStagedAlltoallv(f *testing.F) {
	f.Add([]byte{}, int8(0), false, false)
	f.Add([]byte{3, 1, 5, 0, 9, 2, 2, 7, 0, 4, 1, 0, 3}, int8(1), true, true)
	f.Add([]byte{16, 0, 40, 0, 13, 47, 4, 1, 2, 3, 5, 0, 7, 8, 9, 20, 11}, int8(-3), true, false)
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, int8(7), false, true)
	f.Fuzz(func(t *testing.T, raw []byte, stage int8, overlap, post bool) {
		next := func() int {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return int(b)
		}
		p := next()%17 + 1
		payloads := make([][][]byte, p) // payloads[src][dst]
		for src := range payloads {
			payloads[src] = make([][]byte, p)
			if next()%5 == 4 {
				continue // src sends nothing
			}
			for dst := range payloads[src] {
				payloads[src][dst] = make([]byte, next()%48)
				for i := range payloads[src][dst] {
					payloads[src][dst][i] = byte(31*src + 7*dst + i)
				}
			}
		}
		runRanks(t, p, nil, func(c *Comm) error {
			me := c.Rank()
			want, err := c.Alltoall(payloads[me])
			if err != nil {
				return err
			}
			send, recv, got := make([]int64, p), make([]int64, p), make([][]byte, p)
			var regions [][]byte
			if post {
				regions = make([][]byte, p)
			}
			for r := range p {
				send[r], recv[r] = int64(len(payloads[me][r])), int64(len(payloads[r][me]))
				if post {
					regions[r] = make([]byte, recv[r])
				}
			}
			var window atomic.Int64
			prev := -1 // the source drained last
			_, err = c.StagedAlltoallv(StagedOptions{
				StageBytes: int64(stage), SendBytes: send, RecvBytes: recv, RecvRegions: regions, Overlap: overlap,
				Fill:     func(dst int, off, n int64) ([]byte, error) { return payloads[me][dst][off : off+n], nil },
				OnWindow: func(d int64) { window.Add(d) },
				Drain: func(src int, off int64, chunk []byte) error {
					if src != prev && prev >= 0 && (int64(len(got[prev])) != recv[prev] || (me-src+p)%p <= (me-prev+p)%p) {
						return fmt.Errorf("rank %d: source %d drained after %d", me, src, prev)
					}
					if prev = src; off != int64(len(got[src])) || len(chunk) == 0 {
						return fmt.Errorf("rank %d: %d bytes from %d at offset %d, after %d", me, len(chunk), src, off, len(got[src]))
					}
					if post {
						got[src] = regions[src][:off+int64(copy(regions[src][off:], chunk))]
					} else {
						got[src] = append(got[src], chunk...)
					}
					return nil
				},
			})
			if err != nil {
				return err
			}
			for src := range p {
				if !bytes.Equal(got[src], want[src]) {
					return fmt.Errorf("rank %d: %d bytes from %d, Alltoall delivered %d", me, len(got[src]), src, len(want[src]))
				}
			}
			if w := window.Load(); w != 0 {
				return fmt.Errorf("rank %d: staging window at %d after the collective", me, w)
			}
			return nil
		})
	})
}
