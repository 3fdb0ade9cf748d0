// Package tcpcomm is the TCP transport for the comm runtime: ranks in
// separate OS processes (or one process, for tests) exchanging
// length-prefixed binary frames over the network — the "custom RPC
// exchange" that stands in for MPI's network layer in this reproduction.
//
// Bootstrap: rank 0 doubles as the registry. Every rank dials the
// registry (with backoff, since the registry may come up late),
// announces (rank, listen address, node id), and receives the full
// address map once all ranks have registered. Data connections are
// then dialed lazily, one outgoing connection per (sender, receiver)
// pair; each accepted connection is drained by a reader goroutine into a
// tag-matched mailbox, so bulk all-to-all traffic cannot deadlock on TCP
// buffer backpressure.
//
// Robustness: the send path retries under Config.Retry — a failed dial
// or frame write closes the connection, backs off (capped exponential
// with jitter) and reconnects transparently. Every frame carries a
// per-destination sequence number; the receiver drops sequences it has
// already delivered (a frame retransmitted across a reconnect arrives
// exactly once) and reorders frames that the racing old- and
// new-connection readers deliver out of order. A sequence gap that
// persists past Config.GapTimeout means frames the kernel accepted
// were never delivered; that poisons the peer's mailbox with
// comm.ErrPeerLost instead of hanging receives. When the send budget
// is exhausted, Send fails with comm.ErrPeerLost naming the peer.
// Config.RecvTimeout optionally bounds Recv as a crude failure
// detector for peers that die silently.
package tcpcomm

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sdssort/internal/comm"
)

// MaxFrameSize bounds a single message; larger frames indicate stream
// corruption and kill the connection rather than attempting a huge
// allocation.
const MaxFrameSize = 1 << 30

// ErrClosed is returned on operations against a closed transport: the
// same comm.ErrClosed the in-process transport returns, since both
// receive through comm.Mailbox.
var ErrClosed = comm.ErrClosed

// errRecvTimeout marks a Recv that outwaited Config.RecvTimeout; it is
// surfaced wrapped in comm.ErrPeerLost.
var errRecvTimeout = comm.ErrRecvTimeout

// Config describes one rank's endpoint.
type Config struct {
	// Rank and Size identify this process within the world.
	Rank, Size int
	// Node is the physical-node id used for node-aware splitting;
	// ranks sharing a machine should share a Node value.
	Node int
	// Epoch is the recovery epoch this endpoint participates in. The
	// coordinator (rank 0) is authoritative: it announces its epoch in
	// the registration broadcast and every worker adopts it, so a
	// worker respawned by a supervisor only needs the registry address
	// to rejoin at the right epoch. Connections whose hello carries a
	// different epoch are dropped on accept — frames from a torn-down
	// epoch can never reach a live one.
	Epoch int
	// Registry is the host:port the registry listens on. Rank 0 binds
	// it; everyone else dials it.
	Registry string
	// RegistryListener, when set, is the registry's listener, already
	// open: rank 0 serves on it instead of binding Registry, and closes
	// it once registration ends. Other ranks ignore it.
	RegistryListener net.Listener
	// Listen is the address to bind the data listener on (use
	// "127.0.0.1:0" for tests; the registry learns the real port).
	Listen string
	// Timeout bounds registration and each data dial (default 10s).
	Timeout time.Duration
	// Retry is the per-frame retry budget for the data send path:
	// dial failures and write errors reconnect and retransmit under
	// this policy, and exhausting it yields comm.ErrPeerLost. Zero
	// fields take comm.DefaultRetryPolicy values.
	Retry comm.RetryPolicy
	// SendTimeout is the per-connection write deadline applied to each
	// frame (default 30s). A stalled peer therefore consumes at most
	// SendTimeout × Retry.MaxAttempts before the sender gives up.
	SendTimeout time.Duration
	// RecvTimeout, when positive, bounds how long Recv waits for a
	// matching frame before failing with comm.ErrPeerLost — a crude
	// failure detector for silently dead peers. The default 0 waits
	// forever, matching MPI semantics.
	RecvTimeout time.Duration
	// GapTimeout bounds how long a sequence gap may persist (default
	// 5s). Across a reconnect the old and new connections' readers
	// race, so frames can arrive out of order; they are reordered in a
	// per-source buffer. A gap that outlives GapTimeout means frames
	// the old connection's kernel accepted were never delivered — the
	// source is declared lost rather than letting receives hang.
	GapTimeout time.Duration
}

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 10 * time.Second
	}
	return c.Timeout
}

func (c Config) sendTimeout() time.Duration {
	if c.SendTimeout <= 0 {
		return 30 * time.Second
	}
	return c.SendTimeout
}

func (c Config) gapTimeout() time.Duration {
	if c.GapTimeout <= 0 {
		return 5 * time.Second
	}
	return c.GapTimeout
}

type peerInfo struct {
	Rank  int    `json:"rank"`
	Addr  string `json:"addr"`
	Node  int    `json:"node"`
	Epoch int    `json:"epoch"`
}

// Stats are the transport's cumulative wire counters, updated with
// atomics on the data path and exported live by the telemetry plane.
// Self-sends short-circuit through the mailbox without touching the
// wire and are deliberately not counted. All fields except
// InflightSends are monotonic.
type Stats struct {
	// FramesSent/BytesSent cover frames (header included) that reached
	// a successful write+flush; a frame retransmitted across a
	// reconnect counts once per transmission.
	FramesSent, BytesSent atomic.Int64
	// FramesReceived/BytesReceived cover every frame read off an
	// accepted connection, duplicates included (dedup happens after).
	FramesReceived, BytesReceived atomic.Int64
	// FramesInPlace counts the received frames whose body was read
	// straight into a posted receive region (see Post) instead of a
	// buffer of its own.
	FramesInPlace atomic.Int64
	// SendRetries counts retry attempts after a failed dial or write.
	SendRetries atomic.Int64
	// Connects counts first successful dials per destination;
	// Reconnects counts successful redials after a drop.
	Connects, Reconnects atomic.Int64
	// DedupDropped counts received frames discarded as retransmitted
	// duplicates (sequence already delivered).
	DedupDropped atomic.Int64
	// SendErrors counts sends that exhausted the retry budget and
	// returned comm.ErrPeerLost.
	SendErrors atomic.Int64
	// PeersLost counts sources declared lost by the gap timer.
	PeersLost atomic.Int64
	// InflightSends is a gauge: wire sends currently inside Send.
	InflightSends atomic.Int64
}

// Transport implements comm.Transport over TCP.
type Transport struct {
	cfg   Config
	retry *comm.Retrier
	ln    net.Listener
	peers []peerInfo // indexed by rank
	epoch int        // effective epoch: the coordinator's, not necessarily cfg.Epoch
	box   *comm.Mailbox
	stats Stats

	connMu sync.Mutex
	conns  map[int]*sendConn

	seqMu   sync.Mutex
	streams map[int]*srcStream // per-source reorder/dedup state

	acceptMu sync.Mutex
	accepted map[net.Conn]struct{}

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// message is one frame as a connection reader hands it to admitFrame.
// landed marks a body read into a posted region (claim).
type message struct {
	src    int
	ctx    uint64
	tag    int32
	data   []byte
	landed bool
}

// srcStream is the receive-side state for one source rank: the next
// expected frame sequence, frames that arrived ahead of it (old and
// new connections race across a reconnect), and the timer that turns
// a persistent gap into a lost-peer verdict. land is the expected
// frame's body while a reader writes it into a posted region.
type srcStream struct {
	expected uint64
	pending  map[uint64]message
	gap      *time.Timer
	land     landing
}

// landing is a frame body on its way into a posted region: the key it
// lands on, the connection it arrives over (nil for a reader without
// one), and whether it was cut (see cutLocked).
type landing struct {
	on, cut bool
	ctx     uint64
	tag     int32
	conn    net.Conn
}

// sendConn is the persistent per-destination sender state. The
// connection inside it may die and be redialed; the frame sequence
// counter survives reconnects so the receiver can dedup retransmits.
type sendConn struct {
	mu     sync.Mutex
	c      net.Conn // nil while disconnected
	w      *bufio.Writer
	seq    uint64 // next frame sequence on this stream
	dialed bool   // a dial has succeeded before (redials are reconnects)
	hdr    [frameHeader]byte
}

// New creates the rank's endpoint, runs the registration barrier, and
// returns a ready transport. All ranks of the world must call New
// concurrently; the call blocks until every rank has registered.
func New(cfg Config) (*Transport, error) {
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("tcpcomm: bad rank/size %d/%d", cfg.Rank, cfg.Size)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("tcpcomm: listen: %w", err)
	}
	t := &Transport{
		cfg:      cfg,
		retry:    comm.NewRetrier(cfg.Retry),
		ln:       ln,
		box:      comm.NewMailbox(),
		conns:    make(map[int]*sendConn),
		streams:  make(map[int]*srcStream),
		accepted: make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	peers, err := t.register()
	if err != nil {
		ln.Close()
		return nil, err
	}
	t.peers = peers
	// Adopt the coordinator's recovery epoch: a respawned worker joins
	// whatever epoch rank 0 announced, regardless of its own cfg.
	t.epoch = peers[0].Epoch
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// register runs the bootstrap: rank 0 serves the registry, everyone
// announces itself and receives the address map.
func (t *Transport) register() ([]peerInfo, error) {
	self := peerInfo{Rank: t.cfg.Rank, Addr: t.ln.Addr().String(), Node: t.cfg.Node, Epoch: t.cfg.Epoch}
	if t.cfg.Rank == 0 {
		return t.serveRegistry(self)
	}
	return t.joinRegistry(self)
}

func (t *Transport) serveRegistry(self peerInfo) ([]peerInfo, error) {
	rln := t.cfg.RegistryListener
	if rln == nil {
		var err error
		if rln, err = net.Listen("tcp", t.cfg.Registry); err != nil {
			return nil, fmt.Errorf("tcpcomm: registry listen %s: %w", t.cfg.Registry, err)
		}
	}
	defer rln.Close()
	peers := make([]peerInfo, t.cfg.Size)
	peers[0] = self
	conns := make([]net.Conn, 0, t.cfg.Size-1)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	deadline := time.Now().Add(t.cfg.timeout())
	for registered := 1; registered < t.cfg.Size; {
		if tl, ok := rln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := rln.Accept()
		if err != nil {
			return nil, fmt.Errorf("tcpcomm: registry accept (%d/%d registered): %w", registered, t.cfg.Size, err)
		}
		var info peerInfo
		conn.SetDeadline(deadline)
		if err := json.NewDecoder(conn).Decode(&info); err != nil {
			conn.Close()
			return nil, fmt.Errorf("tcpcomm: registry decode: %w", err)
		}
		if info.Rank <= 0 || info.Rank >= t.cfg.Size {
			conn.Close()
			return nil, fmt.Errorf("tcpcomm: registration from invalid rank %d", info.Rank)
		}
		if peers[info.Rank].Addr != "" {
			conn.Close()
			return nil, fmt.Errorf("tcpcomm: duplicate registration for rank %d", info.Rank)
		}
		peers[info.Rank] = info
		conns = append(conns, conn)
		registered++
	}
	// Everyone is in: broadcast the map.
	blob, err := json.Marshal(peers)
	if err != nil {
		return nil, err
	}
	for _, c := range conns {
		if _, err := c.Write(append(blob, '\n')); err != nil {
			return nil, fmt.Errorf("tcpcomm: registry broadcast: %w", err)
		}
	}
	return peers, nil
}

func (t *Transport) joinRegistry(self peerInfo) ([]peerInfo, error) {
	deadline := time.Now().Add(t.cfg.timeout())
	var conn net.Conn
	var err error
	// The registry may come up after us: redial under the backoff
	// schedule until the overall registration deadline.
	for attempt := 0; ; attempt++ {
		conn, err = net.DialTimeout("tcp", t.cfg.Registry, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("tcpcomm: dial registry %s: %w", t.cfg.Registry, err)
		}
		time.Sleep(t.retry.Backoff(min(attempt, 6)))
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	if err := json.NewEncoder(conn).Encode(self); err != nil {
		return nil, fmt.Errorf("tcpcomm: register: %w", err)
	}
	var peers []peerInfo
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&peers); err != nil {
		return nil, fmt.Errorf("tcpcomm: receive peer map: %w", err)
	}
	if len(peers) != t.cfg.Size {
		return nil, fmt.Errorf("tcpcomm: peer map has %d entries, want %d", len(peers), t.cfg.Size)
	}
	return peers, nil
}

// Rank implements comm.Transport.
func (t *Transport) Rank() int { return t.cfg.Rank }

// Size implements comm.Transport.
func (t *Transport) Size() int { return t.cfg.Size }

// Node implements comm.Transport.
func (t *Transport) Node() int { return t.cfg.Node }

// NodeOf implements comm.Transport.
func (t *Transport) NodeOf(r int) int { return t.peers[r].Node }

// Epoch returns the recovery epoch this transport runs in — the one
// the coordinator announced at registration, which may differ from the
// worker's own Config.Epoch after a supervised restart.
func (t *Transport) Epoch() int { return t.epoch }

// Stats exposes the transport's live wire counters. The returned
// pointer stays valid for the transport's lifetime; read its fields
// with their atomic loads.
func (t *Transport) Stats() *Stats { return &t.stats }

// frame layout: src int32 | ctx uint64 | tag int32 | len uint32 |
// seq uint64 | body. seq increases per (src, dst) pair and survives
// reconnects, carrying the retransmit-dedup contract.
const frameHeader = 4 + 8 + 4 + 4 + 8

// Send implements comm.Transport: it writes one frame on the (possibly
// redialed) connection to dst, retrying dial and write failures under
// the configured budget. Frames to self short-circuit through the
// mailbox. Budget exhaustion returns *comm.ErrPeerLost.
func (t *Transport) Send(dst int, ctx uint64, tag int32, data []byte) error {
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	if dst < 0 || dst >= t.cfg.Size {
		return fmt.Errorf("tcpcomm: send to rank %d out of range", dst)
	}
	if len(data) > MaxFrameSize {
		return fmt.Errorf("tcpcomm: frame of %d bytes exceeds limit", len(data))
	}
	if dst == t.cfg.Rank {
		return t.box.PutCopy(t.cfg.Rank, ctx, tag, data)
	}

	sc := t.sendState(dst)
	t.stats.InflightSends.Add(1)
	defer t.stats.InflightSends.Add(-1)
	// The per-destination lock is held across reconnects and
	// retransmits, so frames (and their sequence numbers) reach the
	// wire in assignment order even when several goroutines send at once.
	sc.mu.Lock()
	defer sc.mu.Unlock()
	seq := sc.seq
	sc.seq++

	// The header lives in sc, not on the stack: handed to the writer, a
	// local array would escape and cost an allocation per frame.
	hdr := sc.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(t.cfg.Rank))
	binary.LittleEndian.PutUint64(hdr[4:], ctx)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(tag))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(data)))
	binary.LittleEndian.PutUint64(hdr[20:], seq)

	var lastErr error
	for attempt := 0; attempt < t.retry.Policy().MaxAttempts; attempt++ {
		if attempt > 0 {
			t.stats.SendRetries.Add(1)
			select {
			case <-time.After(t.retry.Backoff(attempt - 1)):
			case <-t.closed:
				return ErrClosed
			}
		}
		select {
		case <-t.closed:
			return ErrClosed
		default:
		}
		if err := t.ensureConn(sc, dst); err != nil {
			lastErr = err
			continue
		}
		sc.c.SetWriteDeadline(time.Now().Add(t.cfg.sendTimeout()))
		if err := writeFrame(sc.w, hdr, data); err != nil {
			lastErr = fmt.Errorf("tcpcomm: write to rank %d: %w", dst, err)
			dropLocked(sc)
			continue
		}
		sc.c.SetWriteDeadline(time.Time{})
		t.stats.FramesSent.Add(1)
		t.stats.BytesSent.Add(int64(frameHeader + len(data)))
		return nil
	}
	t.stats.SendErrors.Add(1)
	return &comm.ErrPeerLost{Rank: dst, Err: lastErr}
}

func writeFrame(w *bufio.Writer, hdr, data []byte) error {
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Flush()
}

// sendState returns (creating if needed) the persistent sender state
// for dst without dialing.
func (t *Transport) sendState(dst int) *sendConn {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	sc, ok := t.conns[dst]
	if !ok {
		sc = &sendConn{}
		t.conns[dst] = sc
	}
	return sc
}

// ensureConn dials dst if sc currently has no live connection. The
// caller holds sc.mu.
func (t *Transport) ensureConn(sc *sendConn, dst int) error {
	if sc.c != nil {
		return nil
	}
	c, err := net.DialTimeout("tcp", t.peers[dst].Addr, t.cfg.timeout())
	if err != nil {
		return fmt.Errorf("tcpcomm: dial rank %d at %s: %w", dst, t.peers[dst].Addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	// Identify ourselves — rank and epoch — so the acceptor can label
	// the stream and reject connections from stale epochs.
	var hello [8]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(t.cfg.Rank))
	binary.LittleEndian.PutUint32(hello[4:], uint32(t.epoch))
	c.SetWriteDeadline(time.Now().Add(t.cfg.sendTimeout()))
	if _, err := c.Write(hello[:]); err != nil {
		c.Close()
		return fmt.Errorf("tcpcomm: hello to rank %d: %w", dst, err)
	}
	c.SetWriteDeadline(time.Time{})
	sc.c = c
	sc.w = bufio.NewWriterSize(c, 256<<10)
	if sc.dialed {
		t.stats.Reconnects.Add(1)
	} else {
		sc.dialed = true
		t.stats.Connects.Add(1)
	}
	return nil
}

// dropLocked severs sc's connection (caller holds sc.mu); the next
// attempt redials.
func dropLocked(sc *sendConn) {
	if sc.c != nil {
		sc.c.Close()
		sc.c = nil
		sc.w = nil
	}
}

// dropConn severs the cached data connection to dst, if any. Tests use
// it to simulate a connection loss between frames.
func (t *Transport) dropConn(dst int) bool {
	t.connMu.Lock()
	sc := t.conns[dst]
	t.connMu.Unlock()
	if sc == nil {
		return false
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	had := sc.c != nil
	dropLocked(sc)
	return had
}

// Recv implements comm.Transport. With Config.RecvTimeout set, waiting
// longer than the timeout fails with *comm.ErrPeerLost for src.
func (t *Transport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	if src < 0 || src >= t.cfg.Size {
		return nil, fmt.Errorf("tcpcomm: recv from rank %d out of range", src)
	}
	data, err := t.box.Take(src, ctx, tag, t.cfg.RecvTimeout)
	if errors.Is(err, errRecvTimeout) {
		return nil, &comm.ErrPeerLost{Rank: src, Err: err}
	}
	return data, err
}

// Post implements comm.Poster. A frame from src on (ctx, tag) has its
// body read straight into region when it is the next in src's sequence
// and the region has room for it; every other frame — early, duplicate,
// or arriving before the post — is read into a buffer of its own as
// usual, and the receiver copies it into place.
func (t *Transport) Post(src int, ctx uint64, tag int32, region []byte) {
	t.box.Post(src, ctx, tag, region)
}

// Revoke implements comm.Poster. Once the post is withdrawn no frame
// starts landing in the region, and a body still being read into it is
// cut (cutLocked): its reader moves the body out of the region and
// reads on, so Revoke does not wait on a peer that went silent partway
// through a frame.
func (t *Transport) Revoke(src int, ctx uint64, tag int32) {
	t.box.Withdraw(src, ctx, tag)
	t.seqMu.Lock()
	if s := t.streams[src]; s != nil && s.land.ctx == ctx && s.land.tag == tag {
		t.cutLocked(s)
	}
	t.seqMu.Unlock()
	t.box.Revoke(src, ctx, tag)
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			// Listener error outside shutdown: stop accepting; the
			// mailbox stays open for already-connected peers.
			return
		}
		t.acceptMu.Lock()
		t.accepted[conn] = struct{}{}
		t.acceptMu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// admitFrame applies the retransmit-dedup and reorder contract for a
// frame from src. Duplicates (sequence already delivered) are dropped
// silently. A frame ahead of the expected sequence is buffered — the
// old and new connections' readers race across a reconnect — and a gap
// timer is armed; if the gap fills, the buffer drains in order, and if
// it outlives Config.GapTimeout the source is declared lost. The
// returned error is non-nil only when the mailbox is closed.
//
// A frame whose body was read into a posted region (claim) is always
// the expected one. A whole copy of it that a racing connection brings
// while it lands waits in the buffer and cuts the landing short: its
// reader gives the region back (release), which delivers the copy, and
// the rest of the landing body arrives as a duplicate.
func (t *Transport) admitFrame(src int, seq uint64, m message) error {
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	s := t.stream(src)
	if seq < s.expected {
		t.stats.DedupDropped.Add(1)
		return nil // retransmitted duplicate
	}
	if seq > s.expected || s.land.on && !m.landed {
		if _, dup := s.pending[seq]; dup {
			t.stats.DedupDropped.Add(1)
			return nil
		}
		s.pending[seq] = m
		if seq == s.expected {
			t.cutLocked(s)
		}
		if s.gap == nil {
			s.gap = time.AfterFunc(t.cfg.gapTimeout(), func() { t.gapExpired(src) })
		}
		return nil
	}
	var err error
	if m.landed {
		s.land = landing{}
		err = t.box.Land(m.src, m.ctx, m.tag, m.data)
	} else {
		err = t.box.Put(m.src, m.ctx, m.tag, m.data)
	}
	if err != nil {
		return err
	}
	s.expected++
	if _, dup := s.pending[seq]; dup {
		delete(s.pending, seq)
		t.stats.DedupDropped.Add(1)
	}
	return t.drainPending(s)
}

// drainPending delivers the buffered frames that follow s.expected in
// sequence, and disarms the gap timer once nothing waits. The caller
// holds seqMu.
func (t *Transport) drainPending(s *srcStream) error {
	for {
		next, ok := s.pending[s.expected]
		if !ok {
			break
		}
		delete(s.pending, s.expected)
		if err := t.box.Put(next.src, next.ctx, next.tag, next.data); err != nil {
			return err
		}
		s.expected++
	}
	if len(s.pending) == 0 && s.gap != nil {
		s.gap.Stop()
		s.gap = nil
	}
	return nil
}

// stream returns src's receive state, creating it on first use. The
// caller holds seqMu.
func (t *Transport) stream(src int) *srcStream {
	s := t.streams[src]
	if s == nil {
		s = &srcStream{pending: make(map[uint64]message)}
		t.streams[src] = s
	}
	return s
}

// claim decides where the body of src's frame seq, arriving over conn,
// goes: into the posted region of (ctx, tag) — returned — when the frame
// is the next in sequence, no other reader is landing one, and the
// region has room; nil means a buffer of its own. A claim is settled by
// admitFrame with landed set, or by release.
func (t *Transport) claim(conn net.Conn, src int, seq uint64, ctx uint64, tag int32, n int) []byte {
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	s := t.stream(src)
	if seq != s.expected || s.land.on {
		return nil
	}
	dst := t.box.Reserve(src, ctx, tag, n)
	if dst != nil {
		s.land = landing{on: true, ctx: ctx, tag: tag, conn: conn}
	}
	return dst
}

// release gives back a claim whose body did not land — it failed to
// arrive, or was cut — and delivers a copy of the frame that another
// connection brought meanwhile.
func (t *Transport) release(src int, ctx uint64, tag int32, n int) {
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	t.box.Unreserve(src, ctx, tag, n)
	s := t.stream(src)
	s.land = landing{}
	t.drainPending(s) // fails only once the mailbox is closed
}

// cutLocked asks the reader landing s's expected frame to move the body
// out of the posted region: an expired read deadline wakes it from a
// blocked read, and it copies what it read so far into a buffer of its
// own, releases the claim and reads on (readFrames). The caller holds
// seqMu.
func (t *Transport) cutLocked(s *srcStream) {
	if s.land.on && !s.land.cut {
		s.land.cut = true
		if s.land.conn != nil {
			s.land.conn.SetReadDeadline(time.Now())
		}
	}
}

// wasCut reports whether src's landing was cut.
func (t *Transport) wasCut(src int) bool {
	t.seqMu.Lock()
	defer t.seqMu.Unlock()
	return t.stream(src).land.cut
}

// woken reports whether err is the expired read deadline a cut sets on
// conn — the connection is sound, its reader only being woken — and
// clears the deadline so the reader can read on.
func woken(conn net.Conn, err error) bool {
	if conn == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	conn.SetReadDeadline(time.Time{})
	return true
}

// gapExpired fires when a sequence gap from src persisted for the full
// GapTimeout: the missing frames were accepted by a now-dead
// connection's kernel and will never arrive, so src's mailbox is
// poisoned with comm.ErrPeerLost instead of letting receives hang.
func (t *Transport) gapExpired(src int) {
	t.seqMu.Lock()
	s := t.streams[src]
	if s == nil || len(s.pending) == 0 {
		if s != nil {
			s.gap = nil
		}
		t.seqMu.Unlock()
		return
	}
	s.gap = nil
	lo := s.expected
	first := true
	for q := range s.pending {
		if first || q < lo {
			lo = q
			first = false
		}
	}
	missing := lo - s.expected
	t.seqMu.Unlock()
	t.stats.PeersLost.Add(1)
	t.box.Fail(src, &comm.ErrPeerLost{
		Rank: src,
		Err:  fmt.Errorf("tcpcomm: %d frame(s) from rank %d lost across reconnect", missing, src),
	})
}

func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.acceptMu.Lock()
		delete(t.accepted, conn)
		t.acceptMu.Unlock()
	}()
	r := bufio.NewReaderSize(conn, 256<<10)
	var hello [8]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return
	}
	src := int(binary.LittleEndian.Uint32(hello[:]))
	if src < 0 || src >= t.cfg.Size {
		return
	}
	if epoch := int(binary.LittleEndian.Uint32(hello[4:])); epoch != t.epoch {
		// Stale-epoch connection: a sender from a torn-down epoch (or
		// one that has already moved on) found our listener. Dropping
		// the connection here drops every frame it would carry —
		// recovery epochs never see each other's traffic.
		return
	}
	t.readFrames(conn, r, src)
}

// readFrames admits the frames of connection conn (read through r)
// from src until the stream ends or turns out corrupt; either way the
// caller drops the connection, and pending receives surface when the
// transport closes. A frame's body lands in a posted region when claim
// allows, and in a buffer of its own otherwise, or from the moment the
// landing is cut. conn may be nil; nothing can then wake the reader.
func (t *Transport) readFrames(conn net.Conn, r io.Reader, src int) {
	var hdr [frameHeader]byte
	for {
		for got := 0; got < len(hdr); {
			k, err := io.ReadFull(r, hdr[got:])
			if got += k; err != nil && !woken(conn, err) {
				return
			}
		}
		frameSrc := int(binary.LittleEndian.Uint32(hdr[0:]))
		ctx := binary.LittleEndian.Uint64(hdr[4:])
		tag := int32(binary.LittleEndian.Uint32(hdr[12:]))
		n := binary.LittleEndian.Uint32(hdr[16:])
		seq := binary.LittleEndian.Uint64(hdr[20:])
		if frameSrc != src || n > MaxFrameSize {
			return
		}
		body := t.claim(conn, src, seq, ctx, tag, int(n))
		landed := body != nil
		if !landed {
			body = make([]byte, n)
		}
		for got := 0; got < len(body); {
			k, err := io.ReadFull(r, body[got:])
			got += k
			switch {
			case err == nil:
			case !woken(conn, err):
				if landed {
					t.release(src, ctx, tag, int(n))
				}
				return
			case landed && t.wasCut(src):
				// The bytes read so far leave the region before the
				// claim on it is given back.
				own := make([]byte, n)
				copy(own, body[:got])
				t.release(src, ctx, tag, int(n))
				body, landed = own, false
			}
		}
		t.stats.FramesReceived.Add(1)
		t.stats.BytesReceived.Add(int64(frameHeader) + int64(n))
		if landed {
			t.stats.FramesInPlace.Add(1)
		}
		if t.admitFrame(src, seq, message{src: src, ctx: ctx, tag: tag, data: body, landed: landed}) != nil {
			return
		}
	}
}

// Close implements comm.Transport: it stops the listener, closes all
// connections, and unblocks pending receives with ErrClosed.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.ln.Close()
		t.connMu.Lock()
		conns := make([]*sendConn, 0, len(t.conns))
		for _, sc := range t.conns {
			conns = append(conns, sc)
		}
		t.connMu.Unlock()
		for _, sc := range conns {
			sc.mu.Lock()
			dropLocked(sc)
			sc.mu.Unlock()
		}
		// Close accepted connections too, or their reader goroutines
		// would block until the remote side also shut down.
		t.acceptMu.Lock()
		for c := range t.accepted {
			c.Close()
		}
		t.acceptMu.Unlock()
		t.seqMu.Lock()
		for _, s := range t.streams {
			if s.gap != nil {
				s.gap.Stop()
				s.gap = nil
			}
		}
		t.seqMu.Unlock()
		t.box.Close()
	})
	t.wg.Wait()
	return nil
}
