package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// runRanks drives fn on every rank of a fresh world and fails the test
// on any rank error.
func runRanks(t *testing.T, size int, nodeOf []int, fn func(c *Comm) error) {
	t.Helper()
	world, err := NewWorld(size, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	errs := make([]error, size)
	var wg sync.WaitGroup
	var once sync.Once
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := fn(New(world.Transport(rank))); err != nil {
				errs[rank] = err
				once.Do(func() { world.Close() })
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0, nil); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewWorld(4, []int{0, 0}); err == nil {
		t.Fatal("short nodeOf accepted")
	}
}

func TestBlockNodes(t *testing.T) {
	got := BlockNodes(6, 2)
	want := []int{0, 0, 1, 1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if got := BlockNodes(3, 0); got[2] != 2 {
		t.Fatalf("coresPerNode=0 should default to 1, got %v", got)
	}
}

func TestSendRecvBasic(t *testing.T) {
	runRanks(t, 2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		data, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
}

func TestSendBufferReuseSafe(t *testing.T) {
	// The transport must copy eagerly: mutating the buffer after Send
	// must not corrupt the delivered message.
	runRanks(t, 2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99
			return nil
		}
		data, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("message corrupted by sender buffer reuse: %v", data)
		}
		return nil
	})
}

func TestMessageOrderingFIFO(t *testing.T) {
	const n = 100
	runRanks(t, 2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order as %d", i, data[0])
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	// A receive on tag B must not consume a message on tag A, even if
	// A was sent first.
	runRanks(t, 2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("a")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("b"))
		}
		b, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		a, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(a) != "a" || string(b) != "b" {
			return fmt.Errorf("tag mixup: a=%q b=%q", a, b)
		}
		return nil
	})
}

func TestNegativeUserTagRejected(t *testing.T) {
	runRanks(t, 2, nil, func(c *Comm) error {
		if err := c.Send((c.Rank()+1)%2, -5, nil); err == nil {
			return errors.New("negative tag accepted")
		}
		return nil
	})
}

func TestRankRangeChecked(t *testing.T) {
	runRanks(t, 2, nil, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("out-of-range dst accepted")
		}
		if _, err := c.Recv(-1, 0); err == nil {
			return errors.New("out-of-range src accepted")
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		var mu sync.Mutex
		arrived := 0
		runRanks(t, p, nil, func(c *Comm) error {
			mu.Lock()
			arrived++
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if arrived != p {
				return fmt.Errorf("barrier released with %d/%d arrived", arrived, p)
			}
			return nil
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < p; root += 2 {
			runRanks(t, p, nil, func(c *Comm) error {
				var in []byte
				if c.Rank() == root {
					in = []byte{42, byte(root)}
				}
				out, err := c.Bcast(root, in)
				if err != nil {
					return err
				}
				if len(out) != 2 || out[0] != 42 || out[1] != byte(root) {
					return fmt.Errorf("rank %d got %v", c.Rank(), out)
				}
				return nil
			})
		}
	}
}

func TestGather(t *testing.T) {
	for _, p := range []int{1, 2, 5, 9} {
		root := p / 2
		runRanks(t, p, nil, func(c *Comm) error {
			out, err := c.Gather(root, []byte{byte(c.Rank()), byte(c.Rank() * 2)})
			if err != nil {
				return err
			}
			if c.Rank() != root {
				if out != nil {
					return errors.New("non-root got data")
				}
				return nil
			}
			for r := 0; r < p; r++ {
				if len(out[r]) != 2 || out[r][0] != byte(r) {
					return fmt.Errorf("root: bad entry %d: %v", r, out[r])
				}
			}
			return nil
		})
	}
}

// allgatherSizes are the communicator sizes the collective tests run
// at: powers of two, their neighbours and primes, where Bruck's last
// round sends a partial block.
var allgatherSizes = []int{1, 2, 3, 4, 5, 7, 8, 13}

func TestAllgatherVariableSizes(t *testing.T) {
	// Rank r sends r bytes, except every third rank sends none.
	size := func(r int) int {
		if r%3 == 1 {
			return 0
		}
		return r
	}
	for _, p := range allgatherSizes {
		runRanks(t, p, nil, func(c *Comm) error {
			mine := make([]byte, size(c.Rank()))
			for i := range mine {
				mine[i] = byte(c.Rank())
			}
			out, err := c.Allgather(mine)
			if err != nil {
				return err
			}
			if len(out) != p {
				return fmt.Errorf("got %d parts", len(out))
			}
			for r := 0; r < p; r++ {
				if len(out[r]) != size(r) {
					return fmt.Errorf("part %d has %d bytes, want %d", r, len(out[r]), size(r))
				}
				for _, b := range out[r] {
					if b != byte(r) {
						return fmt.Errorf("part %d corrupted", r)
					}
				}
			}
			return nil
		})
	}
}

func TestAllreduceInt64s(t *testing.T) {
	// vec is rank r's vector: pseudo-random signed values, so sum, min
	// and max each depend on every rank.
	vec := func(r, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64((r*7919+i*104729)%1000) - 500
		}
		return out
	}
	ops := map[string]func(a, b int64) int64{
		"sum": func(a, b int64) int64 { return a + b },
		"min": func(a, b int64) int64 { return min(a, b) },
		"max": func(a, b int64) int64 { return max(a, b) },
	}
	for _, p := range allgatherSizes {
		for _, n := range []int{0, 1, 5} {
			for name, op := range ops {
				want := vec(0, n)
				for r := 1; r < p; r++ {
					for i, v := range vec(r, n) {
						want[i] = op(want[i], v)
					}
				}
				runRanks(t, p, nil, func(c *Comm) error {
					got, err := c.AllreduceInt64s(vec(c.Rank(), n), op)
					if err != nil {
						return err
					}
					if !slices.Equal(got, want) {
						return fmt.Errorf("p=%d n=%d %s: got %v want %v", p, n, name, got, want)
					}
					return nil
				})
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		runRanks(t, p, nil, func(c *Comm) error {
			parts := make([][]byte, p)
			for dst := range parts {
				// Variable sizes: rank r sends (r+dst+1) bytes to dst.
				parts[dst] = make([]byte, c.Rank()+dst+1)
				for i := range parts[dst] {
					parts[dst][i] = byte(c.Rank()*16 + dst)
				}
			}
			out, err := c.Alltoall(parts)
			if err != nil {
				return err
			}
			for src := 0; src < p; src++ {
				if len(out[src]) != src+c.Rank()+1 {
					return fmt.Errorf("from %d: %d bytes, want %d", src, len(out[src]), src+c.Rank()+1)
				}
				for _, b := range out[src] {
					if b != byte(src*16+c.Rank()) {
						return fmt.Errorf("from %d: corrupted payload", src)
					}
				}
			}
			return nil
		})
	}
}

func TestAlltoallWrongPartCount(t *testing.T) {
	runRanks(t, 2, nil, func(c *Comm) error {
		if _, err := c.Alltoall([][]byte{nil}); err == nil {
			return errors.New("wrong part count accepted")
		}
		// Recover the fabric state: the other rank didn't send either,
		// so nothing is in flight.
		return nil
	})
}

func TestAllgatherInt64AndAllreduce(t *testing.T) {
	runRanks(t, 5, nil, func(c *Comm) error {
		vals, err := c.AllgatherInt64(int64(c.Rank() * 10))
		if err != nil {
			return err
		}
		for r, v := range vals {
			if v != int64(r*10) {
				return fmt.Errorf("vals[%d]=%d", r, v)
			}
		}
		sum, err := c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		if sum != 10 { // 0+1+2+3+4
			return fmt.Errorf("sum=%d", sum)
		}
		maxv, err := c.AllreduceInt64(int64(c.Rank()), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if err != nil {
			return err
		}
		if maxv != 4 {
			return fmt.Errorf("max=%d", maxv)
		}
		return nil
	})
}

func TestSplitEvenOdd(t *testing.T) {
	runRanks(t, 6, nil, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("sub rank %d want %d", sub.Rank(), want)
		}
		// Traffic on the sub-communicator must work and stay isolated.
		vals, err := sub.AllgatherInt64(int64(c.Rank()))
		if err != nil {
			return err
		}
		for i, v := range vals {
			if want := int64(2*i + c.Rank()%2); v != want {
				return fmt.Errorf("vals[%d]=%d want %d", i, v, want)
			}
		}
		return nil
	})
}

func TestSplitNegativeColor(t *testing.T) {
	runRanks(t, 4, nil, func(c *Comm) error {
		color := -1
		if c.Rank() < 2 {
			color = 0
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() < 2 && (sub == nil || sub.Size() != 2) {
			return errors.New("colored rank got no sub-communicator")
		}
		if c.Rank() >= 2 && sub != nil {
			return errors.New("undefined-color rank got a communicator")
		}
		return nil
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	runRanks(t, 4, nil, func(c *Comm) error {
		// Reverse the ranks via the key.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		if want := c.Size() - 1 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("sub rank %d want %d", sub.Rank(), want)
		}
		return nil
	})
}

func TestSplitContextIsolation(t *testing.T) {
	// A message sent on the parent must not be received on the child,
	// even with the same (src, dst, tag).
	runRanks(t, 2, nil, func(c *Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []byte("parent")); err != nil {
				return err
			}
			return sub.Send(1, 5, []byte("child"))
		}
		childMsg, err := sub.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(childMsg) != "child" {
			return fmt.Errorf("child comm received %q", childMsg)
		}
		parentMsg, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(parentMsg) != "parent" {
			return fmt.Errorf("parent comm received %q", parentMsg)
		}
		return nil
	})
}

func TestSplitByNode(t *testing.T) {
	// 6 ranks on 3 nodes of 2.
	runRanks(t, 6, BlockNodes(6, 2), func(c *Comm) error {
		local, leaders, err := c.SplitByNode()
		if err != nil {
			return err
		}
		if local.Size() != 2 {
			return fmt.Errorf("local size %d", local.Size())
		}
		if want := c.Rank() % 2; local.Rank() != want {
			return fmt.Errorf("local rank %d want %d", local.Rank(), want)
		}
		isLeader := c.Rank()%2 == 0
		if isLeader {
			if leaders == nil {
				return errors.New("leader got nil leaders comm")
			}
			if leaders.Size() != 3 {
				return fmt.Errorf("leaders size %d", leaders.Size())
			}
			if want := c.Rank() / 2; leaders.Rank() != want {
				return fmt.Errorf("leaders rank %d want %d", leaders.Rank(), want)
			}
		} else if leaders != nil {
			return errors.New("non-leader got a leaders comm")
		}
		return nil
	})
}

func TestSuccessiveSplitsDistinctContexts(t *testing.T) {
	// Two Splits with identical arguments must yield isolated comms.
	runRanks(t, 2, nil, func(c *Comm) error {
		s1, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		s2, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := s2.Send(1, 0, []byte("two")); err != nil {
				return err
			}
			return s1.Send(1, 0, []byte("one"))
		}
		one, err := s1.Recv(0, 0)
		if err != nil {
			return err
		}
		two, err := s2.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(one) != "one" || string(two) != "two" {
			return fmt.Errorf("context mixup: %q %q", one, two)
		}
		return nil
	})
}

func TestClosedWorldUnblocksRecv(t *testing.T) {
	world, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := New(world.Transport(0))
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv(1, 0)
		done <- err
	}()
	world.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// Sends after close fail too.
	if err := c.Send(1, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestFrameCodecs(t *testing.T) {
	parts := [][]byte{nil, {1}, {2, 3, 4}, {}}
	got, err := unpackFrames(packFrames(parts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("got %d parts", len(got))
	}
	for i := range parts {
		if len(got[i]) != len(parts[i]) {
			t.Fatalf("part %d: %v vs %v", i, got[i], parts[i])
		}
	}
	if _, err := unpackFrames([]byte{1, 2}); err == nil {
		t.Fatal("short pack accepted")
	}
	if _, err := unpackFrames([]byte{1, 0, 0, 0, 5, 0, 0, 0, 1}); err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, err := unpackFrames(append(packFrames(parts), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeInt64s([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged int payload accepted")
	}
}

func TestDupIsolatesContext(t *testing.T) {
	runRanks(t, 2, nil, func(c *Comm) error {
		d := c.Dup()
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			return errors.New("dup changed membership")
		}
		if c.Rank() == 0 {
			if err := d.Send(1, 7, []byte("dup")); err != nil {
				return err
			}
			return c.Send(1, 7, []byte("orig"))
		}
		orig, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		dup, err := d.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(orig) != "orig" || string(dup) != "dup" {
			return fmt.Errorf("context mixup: %q %q", orig, dup)
		}
		return nil
	})
}

func TestGroupAndTranslateRank(t *testing.T) {
	runRanks(t, 6, nil, func(c *Comm) error {
		g := c.Group()
		if len(g) != 6 || g[3] != 3 {
			return fmt.Errorf("world group %v", g)
		}
		g[0] = 99 // must not alias internal state
		if c.Group()[0] != 0 {
			return errors.New("Group leaked internal slice")
		}
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		// sub rank k translates to world rank 2k+parity, through both
		// WorldRank and the Group copy.
		sg := sub.Group()
		for k := 0; k < sub.Size(); k++ {
			world := 2*k + c.Rank()%2
			if got := sub.WorldRank(k); got != world || sg[k] != world {
				return fmt.Errorf("translate sub %d -> world %d (group %d), want %d", k, got, sg[k], world)
			}
		}
		if c.Name() == "" || sub.Name() == c.Name() {
			return errors.New("names not hierarchical")
		}
		return nil
	})
}

func TestFIFOPropertyQuick(t *testing.T) {
	// Property: for random message counts and payload sizes, per-tag
	// FIFO order holds even when two tags interleave arbitrarily.
	f := func(counts [2]uint8, seed int64) bool {
		n0, n1 := int(counts[0])%50, int(counts[1])%50
		ok := true
		runRanks(t, 2, nil, func(c *Comm) error {
			if c.Rank() == 0 {
				rng := rand.New(rand.NewSource(seed))
				sent := [2]int{}
				for sent[0] < n0 || sent[1] < n1 {
					tag := rng.Intn(2)
					if sent[tag] >= []int{n0, n1}[tag] {
						tag = 1 - tag
					}
					if err := c.Send(1, tag+10, []byte{byte(sent[tag])}); err != nil {
						return err
					}
					sent[tag]++
				}
				return nil
			}
			for tag, n := range []int{n0, n1} {
				for i := 0; i < n; i++ {
					data, err := c.Recv(0, tag+10)
					if err != nil {
						return err
					}
					if data[0] != byte(i) {
						ok = false
					}
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestManyDupsConcurrentTraffic(t *testing.T) {
	// Several duplicated communicators carrying traffic at once must
	// stay isolated.
	runRanks(t, 3, nil, func(c *Comm) error {
		const dups = 5
		comms := make([]*Comm, dups)
		for i := range comms {
			comms[i] = c.Dup()
		}
		var wg sync.WaitGroup
		errs := make([]error, dups)
		for i, d := range comms {
			wg.Add(1)
			go func(i int, d *Comm) {
				defer wg.Done()
				next := (d.Rank() + 1) % d.Size()
				prev := (d.Rank() + 2) % d.Size()
				if err := d.Send(next, 1, []byte{byte(i), byte(d.Rank())}); err != nil {
					errs[i] = err
					return
				}
				got, err := d.Recv(prev, 1)
				if err != nil {
					errs[i] = err
					return
				}
				if got[0] != byte(i) || got[1] != byte(prev) {
					errs[i] = fmt.Errorf("dup %d cross-talk: %v", i, got)
				}
			}(i, d)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
}

// FuzzUnpackFrames feeds arbitrary bytes to the packed-frame decoder
// every allgather round parses: it must never panic, every frame it
// returns must lie inside the input, and what it accepts must re-pack
// to the same bytes.
func FuzzUnpackFrames(f *testing.F) {
	f.Add(packFrames(nil))
	f.Add(packFrames([][]byte{nil, {1}, {2, 3, 4}, {}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 5, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, buf []byte) {
		parts, err := unpackFrames(buf)
		if err != nil {
			return
		}
		for i, part := range parts {
			if len(part) > 0 && !inside(part, buf) {
				t.Fatalf("frame %d lies outside the input", i)
			}
		}
		if again := packFrames(parts); !slices.Equal(again, buf) {
			t.Fatalf("re-pack differs: %x vs %x", again, buf)
		}
	})
}

// inside reports whether part is a subslice of buf.
func inside(part, buf []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(part)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return start >= lo && start+uintptr(len(part)) <= lo+uintptr(len(buf))
}
