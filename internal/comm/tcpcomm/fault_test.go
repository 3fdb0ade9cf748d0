package tcpcomm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"sdssort/internal/comm"
)

// Failure-path tests for the hardened TCP transport. Every test that
// could deadlock on a regression is guarded by a deadline; the CI soak
// lane runs them under -race with several -count repetitions (the
// names match the soak job's 'Fault|Retry|Reconnect' filter).

// faultWithin bounds fn so a hang fails the test instead of the suite.
func faultWithin(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("still blocked after %v — expected a typed error, not a hang", d)
		return nil
	}
}

// bootPair brings up a 2-rank TCP world with the given config tweaks.
func bootPair(t *testing.T, tweak func(r int, cfg *Config)) (t0, t1 *Transport) {
	t.Helper()
	rln, registry := openRegistry(t)
	trs := make([]*Transport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := Config{Rank: rank, Size: 2, Registry: registry, RegistryListener: rln, Timeout: 10 * time.Second}
			if tweak != nil {
				tweak(rank, &cfg)
			}
			trs[rank], errs[rank] = New(cfg)
		}(r)
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs[0], errs[1])
	}
	return trs[0], trs[1]
}

func fastRetry() comm.RetryPolicy {
	return comm.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 1}
}

// TestReconnectAfterConnDrop severs the cached data connection between
// frames and checks the send path redials transparently, with every
// frame delivered exactly once and in order.
func TestReconnectAfterConnDrop(t *testing.T) {
	t0, t1 := bootPair(t, func(r int, cfg *Config) { cfg.Retry = fastRetry() })
	defer t0.Close()
	defer t1.Close()

	const n = 100
	err := faultWithin(t, 30*time.Second, func() error {
		for i := 0; i < n; i++ {
			if err := t0.Send(1, 7, 1, []byte{byte(i)}); err != nil {
				return fmt.Errorf("send %d: %w", i, err)
			}
			if i%10 == 9 {
				if !t0.dropConn(1) {
					return fmt.Errorf("no live connection to drop at frame %d", i)
				}
			}
		}
		for i := 0; i < n; i++ {
			data, err := t1.Recv(0, 7, 1)
			if err != nil {
				return fmt.Errorf("recv %d: %w", i, err)
			}
			if len(data) != 1 || data[0] != byte(i) {
				return fmt.Errorf("frame %d arrived as %v", i, data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultPeerDeathMidAlltoall kills one rank of three right after
// bootstrap; the survivors' all-to-all must fail with comm.ErrPeerLost
// naming the dead rank, not deadlock.
func TestFaultPeerDeathMidAlltoall(t *testing.T) {
	rln, registry := openRegistry(t)
	trs := make([]*Transport, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = New(Config{
				Rank: rank, Size: 3, Registry: registry, RegistryListener: rln, Timeout: 10 * time.Second,
				Retry:       fastRetry(),
				SendTimeout: time.Second,
				RecvTimeout: 3 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d bootstrap: %v", r, err)
		}
	}
	defer trs[0].Close()
	defer trs[1].Close()

	trs[2].Close() // rank 2 dies before any data traffic

	var survivors sync.WaitGroup
	results := make([]error, 2)
	for r := 0; r < 2; r++ {
		survivors.Add(1)
		go func(rank int) {
			defer survivors.Done()
			c := comm.New(trs[rank])
			parts := make([][]byte, 3)
			for dst := range parts {
				parts[dst] = []byte{byte(rank), byte(dst)}
			}
			_, err := c.Alltoall(parts)
			results[rank] = err
		}(r)
	}
	err := faultWithin(t, 30*time.Second, func() error {
		survivors.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if results[r] == nil {
			t.Fatalf("rank %d's alltoall succeeded with rank 2 dead", r)
		}
		lost, ok := comm.PeerLost(results[r])
		if !ok {
			t.Fatalf("rank %d: want comm.ErrPeerLost, got %v", r, results[r])
		}
		if lost != 2 {
			t.Fatalf("rank %d blamed rank %d, want 2 (%v)", r, lost, results[r])
		}
	}
}

// TestRetryRegistryLate starts the worker ranks before the registry
// exists: the backoff dial loop must ride it out.
func TestRetryRegistryLate(t *testing.T) {
	registry := freePort(t)
	const size = 3
	trs := make([]*Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = New(Config{Rank: rank, Size: size, Registry: registry, Timeout: 15 * time.Second, Retry: fastRetry()})
		}(r)
	}
	time.Sleep(400 * time.Millisecond) // workers are already dialing a refused port
	wg.Add(1)
	go func() {
		defer wg.Done()
		trs[0], errs[0] = New(Config{Rank: 0, Size: size, Registry: registry, Timeout: 15 * time.Second, Retry: fastRetry()})
	}()
	err := faultWithin(t, 30*time.Second, func() error {
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	// The fabric is genuinely usable after the late bootstrap.
	if err := trs[1].Send(2, 1, 1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	data, err := trs[2].Recv(1, 1, 1)
	if err != nil || string(data) != "hi" {
		t.Fatalf("post-bootstrap traffic: %q, %v", data, err)
	}
}

// TestFaultSendToClosedMailbox checks both closed-transport send paths
// (self-delivery into a closed mailbox, and remote sends) surface
// ErrClosed, typed, immediately.
func TestFaultSendToClosedMailbox(t *testing.T) {
	t0, t1 := bootPair(t, func(r int, cfg *Config) { cfg.Retry = fastRetry() })
	defer t1.Close()
	t0.Close()
	err := faultWithin(t, 10*time.Second, func() error {
		if err := t0.Send(0, 1, 1, []byte("self")); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("self-send after close: %v", err)
		}
		if err := t0.Send(1, 1, 1, []byte("remote")); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("remote send after close: %v", err)
		}
		if _, err := t0.Recv(1, 1, 1); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("recv after close: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultRecvTimeoutReportsPeerLost: with the failure detector armed,
// a receive with no sender fails typed instead of waiting forever.
func TestFaultRecvTimeoutReportsPeerLost(t *testing.T) {
	t0, t1 := bootPair(t, func(r int, cfg *Config) {
		cfg.Retry = fastRetry()
		cfg.RecvTimeout = 300 * time.Millisecond
	})
	defer t0.Close()
	defer t1.Close()
	err := faultWithin(t, 10*time.Second, func() error {
		_, err := t0.Recv(1, 9, 4)
		return err
	})
	if err == nil {
		t.Fatal("silent peer did not trip the failure detector")
	}
	lost, ok := comm.PeerLost(err)
	if !ok || lost != 1 {
		t.Fatalf("want ErrPeerLost{Rank:1}, got %v", err)
	}
}

// TestFaultFrameGapPoisonsMailbox unit-tests the retransmit-dedup and
// reorder contract: duplicates are dropped, frames ahead of the
// expected sequence are buffered until the gap fills (old and new
// connection readers race after a reconnect), and a gap that outlives
// GapTimeout poisons the source's mailbox with comm.ErrPeerLost.
func TestFaultFrameGapPoisonsMailbox(t *testing.T) {
	newTr := func(gap time.Duration) *Transport {
		return &Transport{
			cfg:     Config{Rank: 0, Size: 2, GapTimeout: gap},
			box:     comm.NewMailbox(),
			streams: make(map[int]*srcStream),
			closed:  make(chan struct{}),
		}
	}
	frame := func(seq uint64) message {
		return message{src: 1, ctx: 0, tag: 0, data: []byte{byte(seq)}}
	}

	// In-order delivery, duplicate dropped, out-of-order reordered.
	tr := newTr(time.Minute)
	for _, seq := range []uint64{0, 0 /* dup */, 2 /* ahead */, 1} {
		if err := tr.admitFrame(1, seq, frame(seq)); err != nil {
			t.Fatalf("admitFrame(%d): %v", seq, err)
		}
	}
	for want := uint64(0); want < 3; want++ {
		data, err := tr.box.Take(1, 0, 0, time.Second)
		if err != nil || len(data) != 1 || data[0] != byte(want) {
			t.Fatalf("frame %d arrived as %v, %v", want, data, err)
		}
	}
	if _, err := tr.box.Take(1, 0, 0, 50*time.Millisecond); !errors.Is(err, errRecvTimeout) {
		t.Fatalf("duplicate leaked into the mailbox: %v", err)
	}

	// A gap that never fills trips the timer and poisons the source.
	tr2 := newTr(100 * time.Millisecond)
	if err := tr2.admitFrame(1, 0, frame(0)); err != nil {
		t.Fatal(err)
	}
	if err := tr2.admitFrame(1, 4, frame(4)); err != nil {
		t.Fatal(err) // frames 1..3 now missing
	}
	if data, err := tr2.box.Take(1, 0, 0, time.Second); err != nil || data[0] != 0 {
		t.Fatalf("in-order frame lost: %v, %v", data, err)
	}
	_, err := tr2.box.Take(1, 0, 0, 5*time.Second)
	lost, ok := comm.PeerLost(err)
	if !ok || lost != 1 {
		t.Fatalf("poisoned mailbox returned %v, want ErrPeerLost{Rank:1}", err)
	}
}

// TestFaultMailboxFailUnblocksPendingTake: a take already blocked when
// the failure lands must wake with the typed error.
func TestFaultMailboxFailUnblocksPendingTake(t *testing.T) {
	b := comm.NewMailbox()
	done := make(chan error, 1)
	go func() {
		_, err := b.Take(3, 0, 0, 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	want := &comm.ErrPeerLost{Rank: 3}
	b.Fail(3, want)
	select {
	case err := <-done:
		if lost, ok := comm.PeerLost(err); !ok || lost != 3 {
			t.Fatalf("got %v, want ErrPeerLost{Rank:3}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("take still blocked after fail()")
	}
	// Frames that arrived before the failure still drain first.
	b2 := comm.NewMailbox()
	if err := b2.Put(1, 0, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	b2.Fail(1, want)
	if data, err := b2.Take(1, 0, 0, 0); err != nil || string(data) != "x" {
		t.Fatalf("queued frame lost to fail(): %q, %v", data, err)
	}
	if _, err := b2.Take(1, 0, 0, 0); err == nil {
		t.Fatal("drained mailbox did not surface the failure")
	}
}

// TestReconnectSendFailureExhaustionIsPeerLost: a peer that vanishes
// (listener gone, nothing accepting) costs exactly the retry budget
// and then surfaces as ErrPeerLost.
func TestReconnectSendFailureExhaustionIsPeerLost(t *testing.T) {
	t0, t1 := bootPair(t, func(r int, cfg *Config) {
		cfg.Retry = comm.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 1}
		cfg.SendTimeout = time.Second
	})
	defer t0.Close()
	t1.Close() // rank 1 is gone; its listener is closed

	err := faultWithin(t, 30*time.Second, func() error {
		return t0.Send(1, 1, 1, []byte("into the void"))
	})
	if err == nil {
		t.Fatal("send to a dead peer succeeded")
	}
	lost, ok := comm.PeerLost(err)
	if !ok || lost != 1 {
		t.Fatalf("want ErrPeerLost{Rank:1}, got %v", err)
	}
}

// rawFrame is a frame as the wire carries it, from src on (ctx, tag)
// with sequence seq.
func rawFrame(src int, ctx uint64, tag int32, seq uint64, body []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(src))
	binary.LittleEndian.PutUint64(hdr[4:], ctx)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(tag))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(body)))
	binary.LittleEndian.PutUint64(hdr[20:], seq)
	return append(hdr[:], body...)
}

// dialAs opens a data connection to tr that introduces itself as rank
// src of tr's epoch.
func dialAs(t *testing.T, tr *Transport, src int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", tr.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(src))
	binary.LittleEndian.PutUint32(hello[4:], uint32(tr.epoch))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// awaitLanding waits until a frame from src is being read into a posted
// region of tr.
func awaitLanding(t *testing.T, tr *Transport, src int, within time.Duration) {
	t.Helper()
	for end := time.Now().Add(within); ; time.Sleep(time.Millisecond) {
		tr.seqMu.Lock()
		s := tr.streams[src]
		on := s != nil && s.land.on
		tr.seqMu.Unlock()
		if on {
			return
		}
		if time.Now().After(end) {
			t.Fatal("no frame started landing in the posted region")
		}
	}
}

// TestFaultStalledLandingRevokes: a peer that stops partway through a
// frame body being read into a posted region — hung, stopped, or cut
// off without a FIN, so the read never fails — must not hold up the
// exchange past the failure detector. Rank 1 reaches rank 0 through a
// relay that forwards its first frame's header and half its body, once
// rank 0 has posted its regions, and then goes silent with the
// connections open; rank 0's staged exchange returns ErrPeerLost for
// rank 1 at its receive timeout, the revoke on its way out included.
func TestFaultStalledLandingRevokes(t *testing.T) {
	const per, stage = 256 << 10, 64 << 10
	t0, t1 := bootPair(t, func(r int, cfg *Config) {
		cfg.Retry = fastRetry()
		cfg.SendTimeout = 500 * time.Millisecond
		if r == 0 {
			cfg.RecvTimeout = 500 * time.Millisecond
		}
	})
	defer t0.Close()
	defer t1.Close()

	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// posted closes when rank 0 drains its own first chunk: the
	// collective posts every region before that.
	posted, stop := make(chan struct{}), make(chan struct{})
	var held []net.Conn
	var heldMu sync.Mutex
	var relayed sync.WaitGroup
	defer func() {
		close(stop)
		relay.Close()
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
		relayed.Wait()
	}()
	relayed.Add(1)
	go func() {
		defer relayed.Done()
		in, err := relay.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", t0.ln.Addr().String())
		if err != nil {
			in.Close()
			return
		}
		heldMu.Lock()
		held = append(held, in, out)
		select {
		case <-stop: // the cleanup has closed the others already
			in.Close()
			out.Close()
		default:
		}
		heldMu.Unlock()
		head := make([]byte, 8+frameHeader)
		if _, err := io.ReadFull(in, head); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(head[8+16:])
		half := make([]byte, n/2)
		if _, err := io.ReadFull(in, half); err != nil {
			return
		}
		select {
		case <-posted:
			out.Write(append(head, half...)) // then silence
		case <-stop:
		}
	}()
	t1.peers[0].Addr = relay.Addr().String()

	counts := []int64{per, per}
	send := make([]byte, per)
	exchange := func(tr *Transport, drain func(src int, off int64, chunk []byte) error) error {
		regions := [][]byte{make([]byte, per), make([]byte, per)}
		_, err := comm.New(tr).StagedAlltoallv(comm.StagedOptions{
			StageBytes: stage, SendBytes: counts, RecvBytes: counts, RecvRegions: regions,
			Fill:  func(dst int, off, n int64) ([]byte, error) { return send[off : off+n], nil },
			Drain: drain,
		})
		return err
	}
	done1 := make(chan error, 1)
	go func() { // its sends to rank 0 end in the relay
		done1 <- exchange(t1, func(int, int64, []byte) error { return nil })
	}()
	defer func() {
		t1.Close()
		select {
		case <-done1:
		case <-time.After(10 * time.Second):
			t.Error("rank 1's exchange did not return after its transport closed")
		}
	}()
	errc := make(chan error, 1)
	start := time.Now()
	var once sync.Once
	go func() {
		errc <- exchange(t0, func(int, int64, []byte) error {
			once.Do(func() { close(posted) })
			return nil
		})
	}()
	awaitLanding(t, t0, 1, 5*time.Second)
	select {
	case err := <-errc:
		if lost, ok := comm.PeerLost(err); !ok || lost != 1 {
			t.Fatalf("want ErrPeerLost{Rank:1}, got %v", err)
		}
		t.Logf("exchange failed after %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(10 * time.Second):
		t.Fatal("exchange still blocked 10s after its peer went silent: the revoke waits on the stalled read")
	}
}

// TestReconnectCopyCutsLanding: while one connection is landing frame
// 0 of a source in a posted region and then goes silent, a whole copy
// of frame 0 on a new connection — the sender's retransmit after it
// redialled — is delivered at once, not after the dead connection or
// the gap timer gives up. The landing is cut: the region is given back
// untouched past what had arrived, and when the rest of the old body
// does arrive it is dropped as a duplicate.
func TestReconnectCopyCutsLanding(t *testing.T) {
	const n = 64 << 10
	t0, t1 := bootPair(t, func(r int, cfg *Config) { cfg.GapTimeout = time.Minute })
	defer t0.Close()
	defer t1.Close()
	region := make([]byte, n)
	t0.Post(1, 9, 5, region)

	old := bytes.Repeat([]byte{0xAA}, n)
	a := dialAs(t, t0, 1)
	defer a.Close()
	frame := rawFrame(1, 9, 5, 0, old)
	if _, err := a.Write(frame[:frameHeader+n/2]); err != nil {
		t.Fatal(err)
	}
	awaitLanding(t, t0, 1, 5*time.Second)

	resent := bytes.Repeat([]byte{0x55}, n)
	b := dialAs(t, t0, 1)
	defer b.Close()
	if _, err := b.Write(rawFrame(1, 9, 5, 0, resent)); err != nil {
		t.Fatal(err)
	}
	got := faultWithin(t, 5*time.Second, func() error {
		data, err := t0.Recv(1, 9, 5)
		if err == nil && !bytes.Equal(data, resent) {
			err = errors.New("delivered payload is not the retransmitted copy")
		}
		return err
	})
	if got != nil {
		t.Fatal(got)
	}

	if _, err := a.Write(frame[frameHeader+n/2:]); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(5 * time.Second); t0.stats.DedupDropped.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the rest of the cut frame was not dropped as a duplicate")
		}
	}
	if !bytes.Equal(region[n/2:], make([]byte, n/2)) {
		t.Fatal("the cut reader wrote into the region after giving it back")
	}
	if in := t0.stats.FramesInPlace.Load(); in != 0 {
		t.Fatalf("%d frames counted in place; the only landing was cut", in)
	}
	faultWithin(t, 5*time.Second, func() error { t0.Revoke(1, 9, 5); return nil })
}
